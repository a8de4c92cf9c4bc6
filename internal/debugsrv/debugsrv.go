// Package debugsrv serves the runtime's profiling endpoints
// (net/http/pprof) for the binaries' -debug-addr flag: on a listener of
// its own, never on the serving port, where a 30-second CPU profile
// would be one unauthenticated request away from every client.
package debugsrv

import (
	"log"
	"net/http"
	"net/http/pprof"
)

// Handler serves /debug/pprof/ and nothing else. (Importing
// net/http/pprof also registers these on http.DefaultServeMux, which no
// Quarry binary serves.)
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Start serves Handler on addr in the background for the life of the
// process; an empty addr (the flag's default) starts nothing. A
// listener that cannot start is logged, not fatal: profiling is not
// what the process is for.
func Start(who, addr string) {
	if addr == "" {
		return
	}
	go func() {
		log.Printf("%s: pprof on http://%s/debug/pprof/", who, addr)
		log.Printf("%s: debug listener: %v", who, http.ListenAndServe(addr, Handler()))
	}()
}
