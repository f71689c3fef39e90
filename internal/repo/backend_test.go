package repo

import (
	"errors"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/activexml/axml/internal/fguide"
	"github.com/activexml/axml/internal/tree"
	"github.com/activexml/axml/internal/workload"
)

func sampleDoc(t *testing.T) *tree.Document {
	t.Helper()
	d, err := tree.Unmarshal([]byte(
		`<r><a>v</a><axml:call service="f"><p>1</p></axml:call></r>`))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// backends returns a fresh repository over each backend kind.
func backends(t *testing.T) map[string]*Repo {
	t.Helper()
	dir, _ := newDirRepo(t)
	mem, err := New(NewMemBackend())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Repo{"dir": dir, "mem": mem}
}

// TestNameValidation runs the naming contract over both backends: every
// rejected name fails Put, Get, Delete and Exists alike, and the
// accepted names list identically on disk and in memory. Dot-prefixed
// names are rejected because a directory listing hides them.
func TestNameValidation(t *testing.T) {
	bad := []string{"", ".", ".hidden", "..", "../escape", "a/b", "a b", "läbel", "x..y"}
	good := []string{"a", "a.b", "A-1_z"}
	for kind, r := range backends(t) {
		for _, name := range bad {
			if err := r.Put(name, sampleDoc(t), PutOptions{}); err == nil {
				t.Errorf("%s: Put(%q) accepted", kind, name)
			}
			if _, err := r.Get(name); err == nil {
				t.Errorf("%s: Get(%q) accepted", kind, name)
			}
			if err := r.Delete(name); err == nil {
				t.Errorf("%s: Delete(%q) accepted", kind, name)
			}
			if r.Exists(name) {
				t.Errorf("%s: Exists(%q) = true", kind, name)
			}
		}
		for _, name := range good {
			if err := r.Put(name, sampleDoc(t), PutOptions{}); err != nil {
				t.Fatalf("%s: Put(%q): %v", kind, name, err)
			}
		}
		names, err := r.List()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := strings.Join(names, ","), "A-1_z,a,a.b"; got != want {
			t.Errorf("%s: List = %s, want %s", kind, got, want)
		}
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	for kind, r := range backends(t) {
		doc := sampleDoc(t)
		if err := r.Put("sample", doc, PutOptions{}); err != nil {
			t.Fatal(err)
		}
		back, err := r.Get("sample")
		if err != nil {
			t.Fatal(err)
		}
		if !doc.Root.Equal(back.Doc.Root) {
			t.Fatalf("%s: round trip mismatch", kind)
		}
	}
}

func TestListExistsDelete(t *testing.T) {
	for kind, r := range backends(t) {
		for _, n := range []string{"b", "a", "c"} {
			if err := r.Put(n, sampleDoc(t), PutOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		names, err := r.List()
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(names, ",") != "a,b,c" {
			t.Fatalf("%s: List = %v", kind, names)
		}
		if !r.Exists("a") || r.Exists("zzz") {
			t.Fatalf("%s: Exists misreports", kind)
		}
		if err := r.Delete("b"); err != nil {
			t.Fatal(err)
		}
		if r.Exists("b") {
			t.Fatalf("%s: deleted document still exists", kind)
		}
		if err := r.Delete("b"); err == nil {
			t.Fatalf("%s: double delete should error", kind)
		}
	}
}

func TestGetMissing(t *testing.T) {
	for kind, r := range backends(t) {
		if _, err := r.Get("nope"); err == nil {
			t.Fatalf("%s: missing document should error", kind)
		}
	}
}

// TestGetCorruptDocument: a document file that does not parse fails Get
// on either backend, yet still exists and lists.
func TestGetCorruptDocument(t *testing.T) {
	dir, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for kind, b := range map[string]Backend{"dir": dir, "mem": NewMemBackend()} {
		r, err := New(b)
		if err != nil {
			t.Fatal(err)
		}
		r.Logger = log.New(io.Discard, "", 0)
		if err := b.WriteFile("bad"+DocExt, []byte("<a><b>")); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Get("bad"); err == nil {
			t.Fatalf("%s: corrupt document must fail to load", kind)
		}
		names, err := r.List()
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != 1 || names[0] != "bad" || !r.Exists("bad") {
			t.Fatalf("%s: List = %v; corrupt entry must stay visible", kind, names)
		}
	}
}

// TestPutSyncDefaultsAndToggle: OpenDir returns a durable backend (Sync
// on), and Put round-trips with fsync both enabled and disabled — the
// sync path must not change what lands on disk, only when it is durable.
func TestPutSyncDefaultsAndToggle(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Sync {
		t.Fatal("OpenDir must default to durable (synced) writes")
	}
	r, err := New(b)
	if err != nil {
		t.Fatal(err)
	}
	doc := sampleDoc(t)
	if err := r.Put("synced", doc, PutOptions{}); err != nil {
		t.Fatal(err)
	}
	b.Sync = false
	if err := r.Put("unsynced", doc, PutOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"synced", "unsynced"} {
		o, err := r.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if !o.Warm || !doc.Root.Equal(o.Doc.Root) {
			t.Fatalf("%s: round trip mismatch (warm=%v)", name, o.Warm)
		}
	}
	// No temp files may survive either path.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

func TestOpenErrors(t *testing.T) {
	// A file where the directory should be.
	base := t.TempDir()
	file := filepath.Join(base, "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(file, "sub")); err == nil {
		t.Fatal("Open under a file must fail")
	}
	b, err := OpenDir(filepath.Join(base, "ok"))
	if err != nil {
		t.Fatal(err)
	}
	if b.Dir() != filepath.Join(base, "ok") {
		t.Fatalf("Dir = %q", b.Dir())
	}
	// Reopening an existing repository works.
	if _, err := Open(filepath.Join(base, "ok")); err != nil {
		t.Fatal(err)
	}
}

func TestPutIntoUnwritableDir(t *testing.T) {
	if os.Getuid() == 0 {
		t.Skip("root ignores permissions")
	}
	r, dir := newDirRepo(t)
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	if err := r.Put("d", sampleDoc(t), PutOptions{}); err == nil {
		t.Fatal("Put into read-only dir must fail")
	}
}

func TestConcurrentPutsAndGets(t *testing.T) {
	r, _ := newDirRepo(t)
	if err := r.Put("d", sampleDoc(t), PutOptions{}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				if err := r.Put("d", sampleDoc(t), PutOptions{}); err != nil {
					t.Error(err)
				}
				return
			}
			if _, err := r.Get("d"); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
}

// TestListIgnoresForeignEntries: subdirectories, files of other types
// and dot files (temp files among them) are not documents, and the
// open-time sweep leaves them alone.
func TestListIgnoresForeignEntries(t *testing.T) {
	dir := t.TempDir()
	foreign := []string{"notes.txt", ".hidden" + DocExt, "profiles.json"}
	for _, f := range foreign {
		if err := os.WriteFile(filepath.Join(dir, f), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.MkdirAll(filepath.Join(dir, "subdir"+DocExt), 0o755); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	names, err := r.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("List picked up foreign entries: %v", names)
	}
	for _, f := range foreign {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("open removed foreign file %s: %v", f, err)
		}
	}
}

// errCrash is the injected failure of crashBackend.
var errCrash = errors.New("injected crash")

// crashBackend simulates a process crash at the k-th mutation: WriteFile
// and Remove calls 1..k-1 reach the inner backend, call k and every
// later one fail without touching it. landed records the files the
// surviving mutations touched.
type crashBackend struct {
	*MemBackend
	k, n   int
	landed []string
}

func (b *crashBackend) mutate(name string, op func() error) error {
	b.n++
	if b.k > 0 && b.n >= b.k {
		return errCrash
	}
	b.landed = append(b.landed, name)
	return op()
}

func (b *crashBackend) WriteFile(name string, data []byte) error {
	return b.mutate(name, func() error { return b.MemBackend.WriteFile(name, data) })
}

func (b *crashBackend) Remove(name string) error {
	return b.mutate(name, func() error { return b.MemBackend.Remove(name) })
}

// TestCrashPoints crashes a first Put, an overwrite Put and a Delete at
// every mutation in turn and reopens the surviving files. The document
// file is replaced atomically, so the reopened entry holds the document
// of the last operation whose document write or removal landed — never
// a mix — and its index is either warm and identical to a fresh build
// or rebuilt and repaired so the next open is warm. Sidecars of a
// deleted document never survive the reopen.
func TestCrashPoints(t *testing.T) {
	v1 := workload.Hotels(workload.DefaultSpec())
	v2 := workload.Hotels(workload.HotelSpec{Hotels: 3, TargetEvery: 1, FiveStarEvery: 1})
	type op struct {
		name string
		doc  *tree.Document // the entry's document once the op lands; nil = deleted
		run  func(r *Repo) error
	}
	ops := []op{
		{"first put", v1.Doc, func(r *Repo) error { return r.Put("d", v1.Doc, PutOptions{Schema: v1.Schema}) }},
		{"overwrite put", v2.Doc, func(r *Repo) error { return r.Put("d", v2.Doc, PutOptions{}) }},
		{"delete", nil, func(r *Repo) error { return r.Delete("d") }},
	}
	// A fault-free pass counts the mutations and checks the final state.
	clean := &crashBackend{MemBackend: NewMemBackend()}
	r, err := New(clean)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range ops {
		if err := o.run(r); err != nil {
			t.Fatalf("%s: %v", o.name, err)
		}
	}
	if files, _ := clean.List(); len(files) != 0 {
		t.Fatalf("fault-free run left %v", files)
	}
	for k := 1; k <= clean.n; k++ {
		b := &crashBackend{MemBackend: NewMemBackend(), k: k}
		r, err := New(b)
		if err != nil {
			t.Fatal(err)
		}
		var want *tree.Document
		crashed := ""
		for _, o := range ops {
			before := len(b.landed)
			err := o.run(r)
			for _, f := range b.landed[before:] {
				if f == "d"+DocExt {
					want = o.doc
				}
			}
			if err != nil {
				if !errors.Is(err, errCrash) {
					t.Fatalf("k=%d %s: %v", k, o.name, err)
				}
				crashed = o.name
				break
			}
		}
		if crashed == "" {
			t.Fatalf("k=%d: no operation crashed", k)
		}

		re, err := New(b.MemBackend)
		if err != nil {
			t.Fatalf("k=%d (%s): reopen: %v", k, crashed, err)
		}
		re.Logger = log.New(io.Discard, "", 0)
		if want == nil {
			if re.Exists("d") {
				t.Fatalf("k=%d (%s): deleted document resurfaced", k, crashed)
			}
			if files, _ := b.MemBackend.List(); len(files) != 0 {
				t.Fatalf("k=%d (%s): reopen left orphaned sidecars %v", k, crashed, files)
			}
			continue
		}
		got, err := re.Get("d")
		if err != nil {
			t.Fatalf("k=%d (%s): %v", k, crashed, err)
		}
		if !got.Doc.Root.Equal(want.Root) {
			t.Fatalf("k=%d (%s): reopened a document that was never committed", k, crashed)
		}
		if g, fresh := got.Guide.String(), fguide.Build(got.Doc).String(); g != fresh {
			t.Fatalf("k=%d (%s): index disagrees with the document (warm=%v)", k, crashed, got.Warm)
		}
		if !got.Warm {
			again, err := re.Get("d")
			if err != nil || !again.Warm {
				t.Fatalf("k=%d (%s): index not repaired (err=%v)", k, crashed, err)
			}
		}
	}
}
