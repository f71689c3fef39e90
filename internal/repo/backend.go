package repo

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
)

// Backend is the byte-level storage a Repo runs over: a flat namespace
// of files with atomic replacement. Implementations must make WriteFile
// all-or-nothing (readers see the old or the new content, never a mix)
// and Remove idempotent (removing a missing file is not an error) —
// that is what lets the repository treat the manifest as a commit point
// and recover from any crash between two writes.
type Backend interface {
	// ReadFile returns the content of a file, or an error wrapping
	// fs.ErrNotExist when it is absent.
	ReadFile(name string) ([]byte, error)
	// WriteFile atomically creates or replaces a file.
	WriteFile(name string, data []byte) error
	// Remove deletes a file; a missing file is a no-op.
	Remove(name string) error
	// List returns every file name in the namespace, sorted.
	List() ([]string, error)
}

// ValidName guards against path traversal and unusable names: the
// naming contract every layer that maps document names to files shares.
// A leading '.' is rejected because dot files are hidden from directory
// listings (DirBackend.List skips them), so such a document could be
// stored but never listed.
func ValidName(name string) error {
	if name == "" {
		return fmt.Errorf("repo: empty document name")
	}
	for _, c := range name {
		ok := c == '-' || c == '_' || c == '.' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("repo: invalid document name %q", name)
		}
	}
	if strings.HasPrefix(name, ".") || strings.Contains(name, "..") {
		return fmt.Errorf("repo: invalid document name %q", name)
	}
	return nil
}

// WriteFileAtomic writes data to dir/filename through a temp file and a
// rename, so readers only ever see the old or the new content. With sync
// set the write is also durable: rename alone only orders the directory
// entry, not the data — after a crash the new name can point at an empty
// or partial file — so the temp file is fsynced before it becomes
// reachable and the directory after, putting the rename itself on stable
// storage. Exported for sidecar files kept next to a repository (the
// server's profiles.json) that need the same guarantees.
func WriteFileAtomic(dir, filename string, data []byte, sync bool) error {
	tmp, err := os.CreateTemp(dir, "."+filename+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if sync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			os.Remove(tmpName)
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, filepath.Join(dir, filename)); err != nil {
		os.Remove(tmpName)
		return err
	}
	if sync {
		return syncDir(dir)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// Platforms whose directories reject fsync (it is optional in POSIX)
// degrade to the pre-sync behaviour rather than failing the write.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}

// DirBackend stores files in one directory with WriteFileAtomic's
// temp-file + rename + fsync discipline. A directory of plain .axml
// files is a valid backend: its documents open cold once and are then
// repaired into indexed entries in place.
type DirBackend struct {
	dir string
	// Sync makes writes durable (fsync file and directory); see
	// WriteFileAtomic. OpenDir sets it.
	Sync bool
}

// OpenDir prepares a directory backend, creating the directory if
// needed. Writes are durable by default.
func OpenDir(dir string) (*DirBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("repo: open %s: %w", dir, err)
	}
	return &DirBackend{dir: dir, Sync: true}, nil
}

// Dir returns the backing directory.
func (b *DirBackend) Dir() string { return b.dir }

func (b *DirBackend) ReadFile(name string) ([]byte, error) {
	return os.ReadFile(filepath.Join(b.dir, name))
}

func (b *DirBackend) WriteFile(name string, data []byte) error {
	return WriteFileAtomic(b.dir, name, data, b.Sync)
}

func (b *DirBackend) Remove(name string) error {
	err := os.Remove(filepath.Join(b.dir, name))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

func (b *DirBackend) List() ([]string, error) {
	entries, err := os.ReadDir(b.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || e.Name()[0] == '.' {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

// MemBackend is an in-memory backend for tests and throwaway
// repositories. The zero value is not usable; call NewMemBackend.
type MemBackend struct {
	mu    sync.RWMutex
	files map[string][]byte
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{files: map[string][]byte{}}
}

func (b *MemBackend) ReadFile(name string) ([]byte, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	data, ok := b.files[name]
	if !ok {
		return nil, fmt.Errorf("mem: %s: %w", name, fs.ErrNotExist)
	}
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}

func (b *MemBackend) WriteFile(name string, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	cp := make([]byte, len(data))
	copy(cp, data)
	b.files[name] = cp
	return nil
}

func (b *MemBackend) Remove(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.files, name)
	return nil
}

func (b *MemBackend) List() ([]string, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	names := make([]string, 0, len(b.files))
	for n := range b.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}
