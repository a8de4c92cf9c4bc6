package olap

// MaxPatterns is the query-log bound, for the external tests.
const MaxPatterns = maxPatterns
