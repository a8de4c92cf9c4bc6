//go:build unix

package storage

// mmap page source (unix): segment files are immutable once written,
// so a read-only shared mapping is always coherent. Decoded vectors
// copy every value out of the mapping (see decodeChunk), so nothing
// outlives the segment's munmap.

import (
	"os"
	"syscall"
)

// sysMmap maps the first size bytes of f read-only, or returns nil
// when mapping is unavailable (the caller falls back to pread).
func sysMmap(f *os.File, size int64) []byte {
	if size <= 0 || int64(int(size)) != size {
		return nil
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil
	}
	return data
}

func sysMunmap(data []byte) {
	if data != nil {
		_ = syscall.Munmap(data)
	}
}
