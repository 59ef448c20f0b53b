package journal

import (
	"os"
	"path/filepath"
)

// WriteFileAtomic replaces the file at path with data so that a crash at
// any instant leaves either the old contents or the new ones, never a
// prefix: the bytes go to a temp file in path's directory, which is
// fsync'd and then renamed over path, and the directory is fsync'd so the
// rename itself is durable. Temp files are named ".tmp-*"; one survives
// only a crash between its creation and the rename.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op once the rename has happened
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}
