//go:build linux

package wal

import (
	"os"
	"runtime"
	"syscall"
)

// preallocate extends f to size bytes of allocated, zero-reading blocks.
// Appends into them change neither the file's size nor its block map, so
// the data sync that follows has no metadata to journal. A variable so a
// test can make the filesystem refuse.
var preallocate = func(f *os.File, size int64) error {
	defer runtime.KeepAlive(f)
	for {
		if err := syscall.Fallocate(int(f.Fd()), 0, 0, size); err != syscall.EINTR {
			return os.NewSyscallError("fallocate", err)
		}
	}
}

// sync_file_range(2) flags: wait for write-out already under way on the
// range, start it for what is dirty, wait for that too.
const syncFileRangeWriteAndWait = 1 | 2 | 4

// datasync makes the n bytes just written at off, and everything written
// before them, durable, and of the file's metadata only what reading them
// back needs (a grown size, yes; timestamps, no).
//
// It waits twice, for one device operation each: sync_file_range for the
// pages to be written out, then fdatasync, which finds nothing left to
// write, for the device's cache to be flushed. A lone fdatasync waits for
// both inside one system call, and the Go runtime takes the processor from
// a thread that stays in one call past its monitor's period (tens of µs)
// and starts another thread on it. With one commit in flight that thread
// finds nothing to run; it only adds to the threads the kernel places, and
// on a host whose CPUs are all busy every thread started or moved is one
// more chance that the flusher wakes up queued behind one of them
// (BENCH_20.json, p50_steadiness: the flusher resumed on another thread in
// 2.4 % of syncs with one call, 0.25 % with two). sync_file_range promises
// nothing by itself — no cache flush, no metadata — so its result is not
// looked at: whatever it left undone, fdatasync does and reports.
func datasync(f *os.File, off, n int64) error {
	defer runtime.KeepAlive(f)
	fd := int(f.Fd())
	for syscall.SyncFileRange(fd, off, n, syncFileRangeWriteAndWait) == syscall.EINTR {
	}
	for {
		if err := syscall.Fdatasync(fd); err != syscall.EINTR {
			return os.NewSyscallError("fdatasync", err)
		}
	}
}
