package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func testKey(n int) Key {
	return Key{
		Kind:   "test",
		Format: 1,
		Inputs: map[string]string{"n": fmt.Sprintf("%d", n)},
	}
}

func putBytes(t *testing.T, s *Store, k Key, data []byte) *Manifest {
	t.Helper()
	man, err := s.Put(k, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	return man
}

func TestKeyDigestStable(t *testing.T) {
	a := Key{Kind: "pairs", Format: 1, Inputs: map[string]string{"x": "1", "y": "2"}}
	b := Key{Kind: "pairs", Format: 1, Inputs: map[string]string{"y": "2", "x": "1"}}
	if a.Digest() != b.Digest() {
		t.Fatalf("digest depends on input insertion order: %s vs %s", a.Digest(), b.Digest())
	}
	c := Key{Kind: "pairs", Format: 2, Inputs: a.Inputs}
	if a.Digest() == c.Digest() {
		t.Fatal("format bump did not change the digest")
	}
	d := Key{Kind: "model", Format: 1, Inputs: a.Inputs}
	if a.Digest() == d.Digest() {
		t.Fatal("kind change did not change the digest")
	}
}

func TestKeyDigestQuotingBlocksForgery(t *testing.T) {
	// Without quoting, {"a": "1\ninput:\"b\"=\"2\""} would collide
	// with {"a": "1", "b": "2"}.
	a := Key{Kind: "k", Format: 1, Inputs: map[string]string{"a": "1\ninput:\"b\"=\"2\""}}
	b := Key{Kind: "k", Format: 1, Inputs: map[string]string{"a": "1", "b": "2"}}
	if a.Digest() == b.Digest() {
		t.Fatal("newline in input value forged a key collision")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	payload := []byte("hello artifact store")
	k := testKey(1)
	man := putBytes(t, s, k, payload)
	if man.Size != int64(len(payload)) {
		t.Fatalf("manifest size = %d, want %d", man.Size, len(payload))
	}
	if man.Kind != "test" || man.Inputs["n"] != "1" {
		t.Fatalf("manifest does not echo the key: %+v", man)
	}

	got, man2, err := s.GetBytes(k)
	if err != nil {
		t.Fatalf("GetBytes: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: got %q want %q", got, payload)
	}
	if man2.SHA256 != man.SHA256 {
		t.Fatalf("manifest hash changed between put and get")
	}
}

func TestGetMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	_, _, err = s.Get(testKey(404))
	if !errors.Is(err, ErrMiss) {
		t.Fatalf("Get on empty store: err = %v, want ErrMiss", err)
	}
}

func TestPutReplacesExisting(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	k := testKey(1)
	putBytes(t, s, k, []byte("first"))
	putBytes(t, s, k, []byte("second"))
	got, _, err := s.GetBytes(k)
	if err != nil {
		t.Fatalf("GetBytes: %v", err)
	}
	if string(got) != "second" {
		t.Fatalf("payload = %q, want %q", got, "second")
	}
	entries, err := s.Entries()
	if err != nil {
		t.Fatalf("Entries: %v", err)
	}
	if len(entries) != 1 {
		t.Fatalf("replacing a key left %d entries, want 1", len(entries))
	}
}

func TestCorruptionDetectedOnRead(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	k := testKey(1)
	putBytes(t, s, k, []byte("pristine payload bytes"))

	// Flip a byte in the payload behind the store's back.
	p := s.payloadPath(k.Digest())
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	data[0] ^= 0xff
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	if _, _, err := s.GetBytes(k); err == nil {
		t.Fatal("reading a corrupted payload succeeded; want integrity error")
	} else if !strings.Contains(err.Error(), "hash") {
		t.Fatalf("corruption error does not mention hash: %v", err)
	}

	bad, err := s.VerifyAll()
	if err != nil {
		t.Fatalf("VerifyAll: %v", err)
	}
	if len(bad) != 1 || bad[0] != k.Digest() {
		t.Fatalf("VerifyAll = %v, want [%s]", bad, k.Digest())
	}
}

func TestTruncationDetectedOnRead(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	k := testKey(1)
	putBytes(t, s, k, []byte("a payload long enough to truncate"))
	p := s.payloadPath(k.Digest())
	if err := os.Truncate(p, 4); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	if _, _, err := s.GetBytes(k); err == nil {
		t.Fatal("reading a truncated payload succeeded; want size error")
	}
}

func TestFailedPutLeavesNoEntry(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	k := testKey(1)
	wantErr := errors.New("producer exploded")
	_, err = s.Put(k, func(w io.Writer) error {
		if _, werr := w.Write([]byte("partial")); werr != nil {
			return werr
		}
		return wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("Put error = %v, want %v", err, wantErr)
	}
	if s.Has(k) {
		t.Fatal("failed Put left a visible entry")
	}
	// The staging area must not accumulate orphans.
	dirents, err := os.ReadDir(filepath.Join(s.root, stagingDir))
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(dirents) != 0 {
		t.Fatalf("failed Put left %d staging files", len(dirents))
	}
}

func TestGCEvictsLRU(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	payload := bytes.Repeat([]byte("x"), 100)
	for n := 1; n <= 3; n++ {
		putBytes(t, s, testKey(n), payload)
	}
	// Age entries 1 and 2, then touch 1 by reading it: 2 becomes the
	// LRU victim.
	old := time.Now().Add(-time.Hour)
	for _, n := range []int{1, 2} {
		p := s.atimePath(testKey(n).Digest())
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatalf("Chtimes: %v", err)
		}
	}
	if _, _, err := s.GetBytes(testKey(1)); err != nil {
		t.Fatalf("GetBytes: %v", err)
	}

	stats, err := s.GC(250)
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if stats.Scanned != 3 || stats.Deleted != 1 || stats.BytesFreed != 100 || stats.BytesKept != 200 {
		t.Fatalf("GC stats = %+v, want scanned 3, deleted 1, freed 100, kept 200", stats)
	}
	if s.Has(testKey(2)) {
		t.Fatal("GC kept the least-recently-used entry")
	}
	for _, n := range []int{1, 3} {
		if !s.Has(testKey(n)) {
			t.Fatalf("GC evicted recently-used entry %d", n)
		}
	}
}

func TestGCNoopUnderBudget(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	putBytes(t, s, testKey(1), []byte("small"))
	stats, err := s.GC(1 << 20)
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if stats.Deleted != 0 {
		t.Fatalf("GC under budget deleted %d entries", stats.Deleted)
	}
}

func TestResolvePrefix(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	k := testKey(1)
	putBytes(t, s, k, []byte("x"))
	digest := k.Digest()
	got, err := s.ResolvePrefix(digest[:8])
	if err != nil {
		t.Fatalf("ResolvePrefix: %v", err)
	}
	if got != digest {
		t.Fatalf("ResolvePrefix = %s, want %s", got, digest)
	}
	if _, err := s.ResolvePrefix("ffffffffffff"); err == nil {
		t.Fatal("ResolvePrefix on absent digest succeeded")
	}
}

func TestRemove(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	k := testKey(1)
	putBytes(t, s, k, []byte("x"))
	if err := s.Remove(k.Digest()); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if s.Has(k) {
		t.Fatal("entry survives Remove")
	}
}

func TestConcurrentPuts(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const writers = 8
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte('a' + i)}, 1000)
			_, errs[i] = s.Put(testKey(i), func(w io.Writer) error {
				_, err := w.Write(payload)
				return err
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	bad, err := s.VerifyAll()
	if err != nil {
		t.Fatalf("VerifyAll: %v", err)
	}
	if len(bad) != 0 {
		t.Fatalf("concurrent puts corrupted entries: %v", bad)
	}
	entries, err := s.Entries()
	if err != nil {
		t.Fatalf("Entries: %v", err)
	}
	if len(entries) != writers {
		t.Fatalf("have %d entries, want %d", len(entries), writers)
	}
}

func TestStaleLockIsBroken(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s.lockTimeout = 500 * time.Millisecond
	s.lockStale = 50 * time.Millisecond
	// Simulate a crashed writer: a lock file nobody will release.
	lock := filepath.Join(s.root, lockName)
	if err := os.WriteFile(lock, []byte("pid=0\n"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	old := time.Now().Add(-time.Minute)
	if err := os.Chtimes(lock, old, old); err != nil {
		t.Fatalf("Chtimes: %v", err)
	}
	putBytes(t, s, testKey(1), []byte("made it past the stale lock"))
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "out.txt")
	if err := WriteFileAtomic(p, func(w io.Writer) error {
		_, err := io.WriteString(w, "content")
		return err
	}); err != nil {
		t.Fatalf("WriteFileAtomic: %v", err)
	}
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if string(data) != "content" {
		t.Fatalf("content = %q", data)
	}
	// A failing writer must leave neither the target nor temp litter.
	p2 := filepath.Join(dir, "fail.txt")
	boom := errors.New("boom")
	if err := WriteFileAtomic(p2, func(w io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, err := os.Stat(p2); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("failed WriteFileAtomic created the target")
	}
	dirents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(dirents) != 1 {
		t.Fatalf("directory has %d entries, want 1 (temp litter?)", len(dirents))
	}
}
