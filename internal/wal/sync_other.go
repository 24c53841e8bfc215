//go:build !linux

package wal

import (
	"errors"
	"os"
)

// preallocate is unsupported here: segments grow as they are written.
var preallocate = func(*os.File, int64) error { return errors.ErrUnsupported }

// datasync falls back to a full fsync of the whole file.
func datasync(f *os.File, off, n int64) error { return f.Sync() }
