package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// WriteFileAtomic writes data to path so that path either keeps its old
// contents or holds the complete new contents, never a torn mix: the data
// goes to a temp file in the same directory, is fsynced, renamed over path,
// and the directory is fsynced so the rename survives a crash too.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer func() {
		if tmpName != "" {
			os.Remove(tmpName)
		}
	}()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	tmpName = "" // renamed away; nothing to clean up
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry is durable. Failure to
// open or sync the directory is reported; some filesystems reject directory
// fsync, which callers may choose to tolerate.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// checkpointPrefix / checkpointSuffix frame checkpoint file names:
// checkpoint-<seq, zero-padded>.ipdc. Zero padding keeps lexicographic and
// numeric order identical, so sorting directory entries sorts by sequence.
const (
	checkpointPrefix = "checkpoint-"
	checkpointSuffix = ".ipdc"
)

// checkpointName renders the file name for a checkpoint taken at event
// sequence seq.
func checkpointName(seq uint64) string {
	return fmt.Sprintf("%s%020d%s", checkpointPrefix, seq, checkpointSuffix)
}

// HasCheckpoint reports whether dir holds a checkpoint file, valid or not; a
// missing directory holds none.
func HasCheckpoint(dir string) (bool, error) {
	names, err := listCheckpoints(dir)
	if os.IsNotExist(err) {
		return false, nil
	}
	return len(names) > 0, err
}

// listCheckpoints returns the checkpoint file names in dir, newest (highest
// sequence) first. Non-checkpoint entries are ignored.
func listCheckpoints(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasPrefix(name, checkpointPrefix) || !strings.HasSuffix(name, checkpointSuffix) {
			continue
		}
		names = append(names, name)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	return names, nil
}
