//go:build unix

package journal

import (
	"errors"
	"fmt"
	"os"
	"syscall"
)

// lockFile takes an exclusive non-blocking advisory lock on the journal
// file. The lock belongs to the open file description: Close (or process
// death, including SIGKILL) releases it, so no stale lock file can strand a
// journal. A journal already held by another process surfaces as ErrLocked.
func lockFile(f *os.File) error {
	err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
	if errors.Is(err, syscall.EWOULDBLOCK) || errors.Is(err, syscall.EAGAIN) {
		return fmt.Errorf("%w: %s", ErrLocked, f.Name())
	}
	if err != nil {
		return fmt.Errorf("journal: locking %s: %w", f.Name(), err)
	}
	return nil
}

// syncDir fsyncs a directory, making the renames and creations in it
// durable.
func syncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
