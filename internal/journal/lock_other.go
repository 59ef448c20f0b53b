//go:build !unix

package journal

import "os"

// lockFile is a no-op on platforms without flock semantics: journal
// exclusivity degrades to the pre-lock behavior (callers must not resume
// the same journal from two processes).
func lockFile(*os.File) error { return nil }

// syncDir is a no-op where a directory cannot be opened for fsync; there
// a rename is as durable as the platform makes it.
func syncDir(string) error { return nil }
