package store

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tracex/internal/obs"
)

// testKey is a fixed logical identity for store tests.
var testKey = Key{App: "synthetic", Machine: "testmachine", MachineFP: "aabbccdd", Cores: 64, Opt: "deadbeef"}

func openTestStore(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := Open(dir, obs.New())
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestStorePutGetRoundTrip(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	sig := genSignature(rand.New(rand.NewSource(3)))
	entry, err := st.Put(sig, testKey)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if entry.Hash == "" || entry.Bytes <= 0 {
		t.Fatalf("entry lacks content identity: %+v", entry)
	}
	got, ok, err := st.Get(testKey)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%t err=%v", ok, err)
	}
	if !reflect.DeepEqual(sig, got) {
		t.Fatal("stored signature differs from the original")
	}
	if st.Len() != 1 {
		t.Errorf("Len = %d", st.Len())
	}
	// Unknown keys are clean misses.
	other := testKey
	other.Cores = 128
	if _, ok, err := st.Get(other); ok || err != nil {
		t.Errorf("miss returned ok=%t err=%v", ok, err)
	}
	// The object is fetchable by content hash alone.
	byHash, err := st.GetHash(entry.Hash)
	if err != nil {
		t.Fatalf("GetHash: %v", err)
	}
	if !reflect.DeepEqual(sig, byHash) {
		t.Error("hash fetch differs from the original")
	}
}

// TestStoreSurvivesReopen is the durability contract: a new process (a new
// Store over the same directory) sees everything a previous one put.
func TestStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	sig := genSignature(rand.New(rand.NewSource(4)))
	st := openTestStore(t, dir)
	if _, err := st.Put(sig, testKey); err != nil {
		t.Fatalf("Put: %v", err)
	}
	st.Close()

	st2 := openTestStore(t, dir)
	got, ok, err := st2.Get(testKey)
	if err != nil || !ok {
		t.Fatalf("Get after reopen: ok=%t err=%v", ok, err)
	}
	if !reflect.DeepEqual(sig, got) {
		t.Fatal("signature changed across reopen")
	}
}

// TestStoreVersioning: re-putting a key supersedes the old entry while the
// old object survives until GC (it remains fetchable by hash).
func TestStoreVersioning(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	r := rand.New(rand.NewSource(5))
	first := genSignature(r)
	second := genSignature(r)
	e1, err := st.Put(first, testKey)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := st.Put(second, testKey)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Hash == e2.Hash {
		t.Fatal("distinct signatures share a content hash")
	}
	got, ok, _ := st.Get(testKey)
	if !ok || !reflect.DeepEqual(second, got) {
		t.Fatal("Get does not return the latest version")
	}
	if st.Len() != 1 {
		t.Errorf("superseded entry still live: Len = %d", st.Len())
	}
	if _, err := st.GetHash(e1.Hash); err != nil {
		t.Errorf("superseded object gone before GC: %v", err)
	}

	stats, err := st.GC()
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if stats.LiveEntries != 1 || stats.RemovedObjects != 1 {
		t.Errorf("GC stats: %+v", stats)
	}
	if _, err := st.GetHash(e1.Hash); err == nil {
		t.Error("GC kept the unreferenced object")
	}
	if _, ok, _ := st.Get(testKey); !ok {
		t.Error("GC broke the live entry")
	}
}

// TestStoreQuarantinesCorruptObject: a bit flip in a stored object turns
// the next Get into a miss, moves the bad bytes to quarantine and bumps the
// corruption counters — it never returns garbage.
func TestStoreQuarantinesCorruptObject(t *testing.T) {
	reg := obs.New()
	dir := t.TempDir()
	st, err := Open(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	entry, err := st.Put(genSignature(rand.New(rand.NewSource(6))), testKey)
	if err != nil {
		t.Fatal(err)
	}
	objPath := filepath.Join(dir, "objects", entry.Hash[:2], entry.Hash+".sig")
	raw, err := os.ReadFile(objPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(objPath, raw, 0o600); err != nil {
		t.Fatal(err)
	}

	sig, ok, err := st.Get(testKey)
	if ok || sig != nil {
		t.Fatal("corrupt object served as a hit")
	}
	if err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corruption not reported: %v", err)
	}
	if _, err := os.Stat(objPath); !errors.Is(err, os.ErrNotExist) {
		t.Error("corrupt object left in place")
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", entry.Hash+".sig")); err != nil {
		t.Errorf("corrupt object not quarantined: %v", err)
	}
	if got := reg.Counter("store.corruptions").Value(); got != 1 {
		t.Errorf("store.corruptions = %d", got)
	}
	// The entry is dropped: the next Get is a clean miss.
	if _, ok, err := st.Get(testKey); ok || err != nil {
		t.Errorf("post-quarantine Get: ok=%t err=%v", ok, err)
	}
	// GC purges the quarantine.
	stats, err := st.GC()
	if err != nil {
		t.Fatal(err)
	}
	if stats.PurgedQuarantine != 1 {
		t.Errorf("GC purged %d quarantined files", stats.PurgedQuarantine)
	}
}

// TestStoreTornWriteRecovery: a truncated object (the classic torn write)
// is detected on read and treated as a miss, and the store keeps working.
func TestStoreTornWriteRecovery(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	sig := genSignature(rand.New(rand.NewSource(8)))
	entry, err := st.Put(sig, testKey)
	if err != nil {
		t.Fatal(err)
	}
	objPath := filepath.Join(dir, "objects", entry.Hash[:2], entry.Hash+".sig")
	if err := os.Truncate(objPath, entry.Bytes/2); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Get(testKey); ok || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn object: ok=%t err=%v", ok, err)
	}
	// Re-putting repairs the key.
	if _, err := st.Put(sig, testKey); err != nil {
		t.Fatalf("Put after torn write: %v", err)
	}
	if _, ok, err := st.Get(testKey); !ok || err != nil {
		t.Fatalf("Get after repair: ok=%t err=%v", ok, err)
	}
}

// TestStoreManifestCorruptLineSkipped: one torn manifest append must not
// take down the store — the bad line is skipped and counted.
func TestStoreManifestCorruptLineSkipped(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	if _, err := st.Put(genSignature(rand.New(rand.NewSource(9))), testKey); err != nil {
		t.Fatal(err)
	}
	st.Close()
	mf, err := os.OpenFile(filepath.Join(dir, "manifest.log"), os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mf.WriteString(`{"app":"torn`); err != nil {
		t.Fatal(err)
	}
	mf.Close()

	reg := obs.New()
	st2, err := Open(dir, reg)
	if err != nil {
		t.Fatalf("Open over a torn manifest: %v", err)
	}
	defer st2.Close()
	if st2.Len() != 1 {
		t.Errorf("Len = %d after torn manifest line", st2.Len())
	}
	if got := reg.Counter("store.corruptions").Value(); got != 1 {
		t.Errorf("store.corruptions = %d", got)
	}
}

func TestStoreLatestAndEntries(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	r := rand.New(rand.NewSource(10))
	// Two entries for the same human identity under different option
	// hashes, plus one unrelated.
	k1, k2 := testKey, testKey
	k2.Opt = "feedface"
	other := testKey
	other.App = "elsewhere"
	for _, k := range []Key{k1, k2, other} {
		sig := genSignature(r)
		sig.App = k.App
		for i := range sig.Traces {
			sig.Traces[i].App = k.App
		}
		sig.CoreCount = k.Cores
		for i := range sig.Traces {
			sig.Traces[i].CoreCount = k.Cores
			sig.Traces[i].Rank = i
		}
		if _, err := st.Put(sig, k); err != nil {
			t.Fatal(err)
		}
	}
	entry, ok := st.LatestEntry(testKey.App, testKey.Machine, testKey.Cores)
	if !ok {
		t.Fatal("LatestEntry found nothing")
	}
	sig, err := st.GetHash(entry.Hash)
	if err != nil {
		t.Fatalf("GetHash(latest): %v", err)
	}
	if sig.App != testKey.App || entry.App != testKey.App {
		t.Errorf("latest entry resolved to %s/%s", sig.App, entry.App)
	}
	if _, ok := st.LatestEntry("nope", "nope", 1); ok {
		t.Error("LatestEntry found a nonexistent identity")
	}
	if got := len(st.Entries()); got != 3 {
		t.Errorf("Entries: %d", got)
	}
}

// TestOpenErrors pins the failure modes: empty directory argument, and an
// uncreatable path whose error names the path.
func TestOpenErrors(t *testing.T) {
	if _, err := Open("", nil); err == nil {
		t.Error("Open(\"\") succeeded")
	}
	file := filepath.Join(t.TempDir(), "plainfile")
	if err := os.WriteFile(file, []byte("x"), 0o600); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(file, "store")
	_, err := Open(bad, nil)
	if err == nil {
		t.Fatal("Open through a plain file succeeded")
	}
	if !strings.Contains(err.Error(), bad) {
		t.Errorf("error does not name the path: %v", err)
	}
}

// TestOpenCreatesPrivateDirs checks the 0700 permission contract.
func TestOpenCreatesPrivateDirs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st := openTestStore(t, dir)
	_ = st
	for _, d := range []string{dir, filepath.Join(dir, "objects"), filepath.Join(dir, "quarantine")} {
		fi, err := os.Stat(d)
		if err != nil {
			t.Fatal(err)
		}
		if perm := fi.Mode().Perm(); perm != 0o700 {
			t.Errorf("%s has mode %o, want 700", d, perm)
		}
	}
}

// TestStoreClosedOperations: a closed store fails writes cleanly.
func TestStoreClosedOperations(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	st.Close()
	if _, err := st.Put(genSignature(rand.New(rand.NewSource(12))), testKey); err == nil {
		t.Error("Put on a closed store succeeded")
	}
	if _, err := st.GC(); err == nil {
		t.Error("GC on a closed store succeeded")
	}
}
