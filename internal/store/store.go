package store

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"tracex/internal/obs"
	"tracex/internal/trace"
)

// This file is the object store over the codec: content-addressed object
// files, an append-only manifest mapping logical keys to content hashes,
// atomic write-then-rename durability, and corruption quarantine.
//
// On-disk layout under the store directory (created 0700 — signatures can
// reveal what a user is running):
//
//	manifest.log            append-only JSON lines, one Entry per line
//	objects/<aa>/<hash>.sig encoded signatures, named by SHA-256
//	quarantine/<name>.sig   objects that failed decoding, kept for autopsy
//
// The manifest is the index: the last line for a logical key wins, so a
// Put is one encode + one rename + one appended line, never a rewrite.
// Corrupt manifest lines are skipped (counted, not fatal); corrupt objects
// are moved to quarantine on first read and their keys become misses. GC
// compacts the manifest to the live entries and deletes unreferenced
// objects.

const (
	objectsDir    = "objects"
	quarantineDir = "quarantine"
	manifestName  = "manifest.log"
	objectExt     = ".sig"
	// dirPerm keeps the store private to the owning user.
	dirPerm  = 0o700
	filePerm = 0o600
)

// Object kinds. Trace signatures predate the Kind field, so their kind is
// the empty string — v1 manifests load unchanged.
const (
	// KindSignature marks a machine-specific trace signature (the
	// default).
	KindSignature = ""
	// KindReuse marks a machine-independent reuse-distance signature;
	// such entries carry no machine name or fingerprint.
	KindReuse = "reuse"
)

// Key is the logical identity of a stored signature: what the Engine keys
// its in-memory cache by, flattened to strings. Machine is the
// configuration's display name; MachineFP and Opt are short fingerprint
// hashes discriminating ad-hoc configurations that share a name and
// differing collection options (see tracex.StoreKey). Kind separates the
// object kinds; reuse-signature keys (tracex.ReuseStoreKey) leave Machine
// and MachineFP empty — machine independence is the point.
type Key struct {
	App       string
	Machine   string
	MachineFP string
	Cores     int
	Opt       string
	Kind      string
}

// Entry is one manifest line: a Key bound to a content hash.
type Entry struct {
	App       string `json:"app"`
	Machine   string `json:"machine"`
	MachineFP string `json:"machine_fp,omitempty"`
	Cores     int    `json:"cores"`
	Opt       string `json:"opt,omitempty"`
	// Kind is the object kind (KindSignature or KindReuse). Omitted for
	// trace signatures, so manifests written before the field existed
	// decode to the same keys.
	Kind string `json:"kind,omitempty"`
	// Hash is the SHA-256 of the encoded object, hex-encoded; it names
	// the object file.
	Hash string `json:"hash"`
	// Bytes is the encoded object's size.
	Bytes int64 `json:"bytes"`
	// Unix is the Put time in seconds since the epoch.
	Unix int64 `json:"unix"`
}

// key extracts the entry's logical key.
func (e *Entry) key() Key {
	return Key{App: e.App, Machine: e.Machine, MachineFP: e.MachineFP, Cores: e.Cores, Opt: e.Opt, Kind: e.Kind}
}

// GCStats summarizes one garbage collection.
type GCStats struct {
	// LiveEntries and LiveBytes describe the store after collection.
	LiveEntries int
	LiveBytes   int64
	// RemovedObjects and ReclaimedBytes count deleted unreferenced object
	// files (superseded versions, orphans from interrupted Puts).
	RemovedObjects int
	ReclaimedBytes int64
	// DroppedEntries counts manifest entries discarded because they were
	// superseded or their object file had vanished.
	DroppedEntries int
	// PurgedQuarantine counts quarantined files deleted.
	PurgedQuarantine int
}

// Store is a persistent signature store rooted at one directory. It is
// safe for concurrent use by multiple goroutines within one process;
// cross-process safety relies on the atomicity of rename and O_APPEND
// manifest writes (concurrent writers may duplicate work, never corrupt).
type Store struct {
	dir string

	mu       sync.Mutex
	index    map[Key]Entry
	manifest *os.File

	reg         *obs.Registry
	hits        *obs.Counter
	misses      *obs.Counter
	puts        *obs.Counter
	bytesRead   *obs.Counter
	bytesWrit   *obs.Counter
	corruptions *obs.Counter
	quarantined *obs.Counter
	readErrors  *obs.Counter
}

// Open opens (creating if needed, with 0700 permissions) the store rooted
// at dir and loads its manifest index. Counters land in reg under the
// store.* namespace; a nil registry disables them.
func Open(dir string, reg *obs.Registry) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty store directory")
	}
	for _, d := range []string{dir, filepath.Join(dir, objectsDir), filepath.Join(dir, quarantineDir)} {
		if err := os.MkdirAll(d, dirPerm); err != nil {
			return nil, fmt.Errorf("store: creating store directory %s: %w", d, err)
		}
	}
	s := &Store{
		dir:         dir,
		index:       map[Key]Entry{},
		reg:         reg,
		hits:        reg.Counter("store.hits"),
		misses:      reg.Counter("store.misses"),
		puts:        reg.Counter("store.puts"),
		bytesRead:   reg.Counter("store.bytes_read"),
		bytesWrit:   reg.Counter("store.bytes_written"),
		corruptions: reg.Counter("store.corruptions"),
		quarantined: reg.Counter("store.quarantined"),
		readErrors:  reg.Counter("store.read_errors"),
	}
	reg.GaugeFunc("store.entries", func() float64 { return float64(s.Len()) })
	if err := s.loadManifest(); err != nil {
		return nil, err
	}
	mf, err := os.OpenFile(s.manifestPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, filePerm)
	if err != nil {
		return nil, fmt.Errorf("store: opening manifest %s: %w", s.manifestPath(), err)
	}
	s.manifest = mf
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Close releases the manifest handle. The store must not be used after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.manifest == nil {
		return nil
	}
	err := s.manifest.Close()
	s.manifest = nil
	return err
}

func (s *Store) manifestPath() string { return filepath.Join(s.dir, manifestName) }

// objectPath returns the object file path for a content hash, fanned out
// over 256 subdirectories to keep listings fast at scale.
func (s *Store) objectPath(hash string) string {
	return filepath.Join(s.dir, objectsDir, hash[:2], hash+objectExt)
}

// loadManifest replays the manifest into the in-memory index. Undecodable
// lines are counted as corruptions and skipped — one torn append must not
// take down the whole store.
func (s *Store) loadManifest() error {
	f, err := os.Open(s.manifestPath())
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: opening manifest %s: %w", s.manifestPath(), err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var e Entry
		if err := json.Unmarshal([]byte(line), &e); err != nil || e.Hash == "" || e.App == "" {
			s.corruptions.Inc()
			continue
		}
		s.index[e.key()] = e // later lines win
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("store: reading manifest %s: %w", s.manifestPath(), err)
	}
	return nil
}

// appendManifest durably appends one entry. Caller holds mu.
func (s *Store) appendManifest(e Entry) error {
	b, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("store: encoding manifest entry: %w", err)
	}
	b = append(b, '\n')
	if _, err := s.manifest.Write(b); err != nil {
		return fmt.Errorf("store: appending manifest %s: %w", s.manifestPath(), err)
	}
	return s.manifest.Sync()
}

// Put encodes the signature, writes it as a content-addressed object
// (write to a temp file, fsync, rename — a crash leaves either the old
// state or the new, never a half-written visible object) and appends a
// manifest entry binding key to it. Re-putting identical content is
// deduplicated at the object layer. The key's Kind is forced to
// KindSignature.
func (s *Store) Put(sig *trace.Signature, key Key) (Entry, error) {
	if err := sig.Validate(); err != nil {
		return Entry{}, err
	}
	key.Kind = KindSignature
	return s.putObject(key, func(w io.Writer) error { return Encode(w, sig) })
}

// PutReuse stores a machine-independent reuse-distance signature under key
// (Kind forced to KindReuse), with the same durability guarantees as Put.
func (s *Store) PutReuse(rs *trace.ReuseSignature, key Key) (Entry, error) {
	if err := rs.Validate(); err != nil {
		return Entry{}, err
	}
	key.Kind = KindReuse
	return s.putObject(key, func(w io.Writer) error { return EncodeReuse(w, rs) })
}

// putObject writes one encoded object and its manifest entry.
func (s *Store) putObject(key Key, encode func(io.Writer) error) (Entry, error) {
	tmp, err := os.CreateTemp(filepath.Join(s.dir, objectsDir), "tmp-*")
	if err != nil {
		return Entry{}, fmt.Errorf("store: creating temp object in %s: %w", filepath.Join(s.dir, objectsDir), err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	h := sha256.New()
	cw := &countWriter{w: io.MultiWriter(tmp, h)}
	if err := encode(cw); err != nil {
		tmp.Close()
		return Entry{}, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return Entry{}, fmt.Errorf("store: syncing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return Entry{}, fmt.Errorf("store: closing %s: %w", tmp.Name(), err)
	}
	hash := hex.EncodeToString(h.Sum(nil))
	dst := s.objectPath(hash)
	if err := os.MkdirAll(filepath.Dir(dst), dirPerm); err != nil {
		return Entry{}, fmt.Errorf("store: creating %s: %w", filepath.Dir(dst), err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		return Entry{}, fmt.Errorf("store: publishing object %s: %w", dst, err)
	}
	e := Entry{
		App: key.App, Machine: key.Machine, MachineFP: key.MachineFP,
		Cores: key.Cores, Opt: key.Opt, Kind: key.Kind,
		Hash: hash, Bytes: cw.n, Unix: time.Now().Unix(),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.manifest == nil {
		return Entry{}, errors.New("store: closed")
	}
	if err := s.appendManifest(e); err != nil {
		return Entry{}, err
	}
	s.index[e.key()] = e
	s.puts.Inc()
	s.bytesWrit.Add(uint64(cw.n))
	return e, nil
}

// Get returns the signature stored under key (Kind forced to
// KindSignature). ok reports whether the key resolved to a readable,
// uncorrupted object. A failed read drops the key from the index and
// returns (nil, false, err), which callers treat exactly like a miss: a
// corrupt object is quarantined and counted in store.corruptions, and any
// other failure (an object file missing under a live entry, an I/O error)
// is counted in store.read_errors.
func (s *Store) Get(key Key) (*trace.Signature, bool, error) {
	key.Kind = KindSignature
	return getKeyed(s, key, Decode)
}

// GetReuse returns the reuse-distance signature stored under key (Kind
// forced to KindReuse), with Get's miss, quarantine and counting
// semantics.
func (s *Store) GetReuse(key Key) (*trace.ReuseSignature, bool, error) {
	key.Kind = KindReuse
	return getKeyed(s, key, DecodeReuse)
}

// getKeyed is the read behind Get and GetReuse: resolve key through the
// index, then decode its object.
func getKeyed[T any](s *Store, key Key, decode func(io.Reader) (*T, error)) (*T, bool, error) {
	s.mu.Lock()
	e, ok := s.index[key]
	s.mu.Unlock()
	if !ok {
		s.misses.Inc()
		return nil, false, nil
	}
	v, err := readObject(s, e.Hash, decode)
	if err != nil {
		s.dropEntry(key)
		s.misses.Inc()
		if !errors.Is(err, ErrCorrupt) {
			s.readErrors.Inc()
		}
		return nil, false, err
	}
	s.hits.Inc()
	return v, true, nil
}

// GetHash returns the signature stored under a content hash, regardless of
// any manifest entry.
func (s *Store) GetHash(hash string) (*trace.Signature, error) {
	if len(hash) != 2*sha256.Size {
		return nil, fmt.Errorf("store: malformed content hash %q", hash)
	}
	sig, err := readObject(s, hash, Decode)
	if err != nil {
		return nil, err
	}
	s.hits.Inc()
	return sig, nil
}

// readObject opens one object file and decodes it, quarantining the
// object when decode reports corruption. An ErrWrongKind failure (a
// healthy object of the other kind) is an error but never quarantines.
func readObject[T any](s *Store, hash string, decode func(io.Reader) (*T, error)) (*T, error) {
	path := s.objectPath(hash)
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: opening object %s: %w", path, err)
	}
	defer f.Close()
	cr := &countReader{r: f}
	v, err := decode(cr)
	s.bytesRead.Add(uint64(cr.n))
	if err != nil {
		if errors.Is(err, ErrCorrupt) {
			s.quarantine(path)
		}
		return nil, fmt.Errorf("store: object %s: %w", path, err)
	}
	return v, nil
}

// quarantine moves a corrupt object out of the objects tree so the next
// request is a clean miss and the bad bytes stay available for inspection.
func (s *Store) quarantine(path string) {
	s.corruptions.Inc()
	dst := filepath.Join(s.dir, quarantineDir, filepath.Base(path))
	if err := os.Rename(path, dst); err == nil {
		s.quarantined.Inc()
	}
}

// dropEntry removes a key from the in-memory index (the manifest keeps its
// history; GC compacts it).
func (s *Store) dropEntry(key Key) {
	s.mu.Lock()
	delete(s.index, key)
	s.mu.Unlock()
}

// LatestEntry returns the manifest entry of the most recently stored
// signature matching (app, machine name, cores) across all machine
// fingerprints and collection options, without reading the object: the
// human-facing lookup behind the HTTP GET and CLI export, where callers
// name machines, not fingerprints. GetHash reads the object it names, so
// the server's read fast path can resolve a triple key to a content hash
// (its cache key) before deciding whether the object bytes are needed.
func (s *Store) LatestEntry(app, machine string, cores int) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var best Entry
	found := false
	for _, e := range s.index {
		if e.Kind != KindSignature || e.App != app || e.Machine != machine || e.Cores != cores {
			continue
		}
		if !found || e.Unix > best.Unix || (e.Unix == best.Unix && e.Hash > best.Hash) {
			best, found = e, true
		}
	}
	return best, found
}

// FindHash returns the manifest entry referencing the given content hash,
// if any (an object can outlive its manifest entries; such hashes are
// still readable via GetHash but carry no metadata).
func (s *Store) FindHash(hash string) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.index {
		if e.Hash == hash {
			return e, true
		}
	}
	return Entry{}, false
}

// Entries returns the live manifest entries sorted by (app, machine,
// cores, time).
func (s *Store) Entries() []Entry {
	s.mu.Lock()
	out := make([]Entry, 0, len(s.index))
	for _, e := range s.index {
		out = append(out, e)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.App != b.App {
			return a.App < b.App
		}
		if a.Machine != b.Machine {
			return a.Machine < b.Machine
		}
		if a.Cores != b.Cores {
			return a.Cores < b.Cores
		}
		if a.Unix != b.Unix {
			return a.Unix < b.Unix
		}
		return a.Hash < b.Hash
	})
	return out
}

// Len returns the number of live manifest entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// GC compacts the store: drops index entries whose objects vanished,
// rewrites the manifest to exactly the live entries (atomically, via
// temp-and-rename), deletes object files no live entry references
// (superseded versions, leftovers of interrupted Puts) and purges the
// quarantine. The store remains usable throughout and after.
func (s *Store) GC() (GCStats, error) {
	sp := s.reg.StartSpan("store.gc", s.dir)
	defer sp.End()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.manifest == nil {
		return GCStats{}, errors.New("store: closed")
	}
	var st GCStats

	// Live set: entries whose object file still exists.
	referenced := map[string]bool{}
	for k, e := range s.index {
		if _, err := os.Stat(s.objectPath(e.Hash)); err != nil {
			delete(s.index, k)
			st.DroppedEntries++
			continue
		}
		referenced[e.Hash] = true
		st.LiveEntries++
		st.LiveBytes += e.Bytes
	}

	// Rewrite the manifest to the live entries.
	tmp, err := os.CreateTemp(s.dir, "manifest-*")
	if err != nil {
		return st, fmt.Errorf("store: creating temp manifest in %s: %w", s.dir, err)
	}
	defer os.Remove(tmp.Name())
	bw := bufio.NewWriter(tmp)
	for _, e := range s.index {
		b, err := json.Marshal(e)
		if err != nil {
			tmp.Close()
			return st, fmt.Errorf("store: encoding manifest entry: %w", err)
		}
		b = append(b, '\n')
		if _, err := bw.Write(b); err != nil {
			tmp.Close()
			return st, fmt.Errorf("store: writing compacted manifest: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return st, fmt.Errorf("store: writing compacted manifest: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return st, fmt.Errorf("store: syncing compacted manifest: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return st, fmt.Errorf("store: closing compacted manifest: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.manifestPath()); err != nil {
		return st, fmt.Errorf("store: publishing compacted manifest %s: %w", s.manifestPath(), err)
	}
	old := s.manifest
	mf, err := os.OpenFile(s.manifestPath(), os.O_WRONLY|os.O_APPEND, filePerm)
	if err != nil {
		return st, fmt.Errorf("store: reopening manifest %s: %w", s.manifestPath(), err)
	}
	s.manifest = mf
	old.Close()

	// Delete unreferenced objects (and stray temp files).
	objRoot := filepath.Join(s.dir, objectsDir)
	_ = filepath.WalkDir(objRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		name := d.Name()
		hash := strings.TrimSuffix(name, objectExt)
		if strings.HasSuffix(name, objectExt) && referenced[hash] {
			return nil
		}
		if fi, err := d.Info(); err == nil {
			st.ReclaimedBytes += fi.Size()
		}
		if os.Remove(path) == nil {
			st.RemovedObjects++
		}
		return nil
	})

	// Purge the quarantine: by GC time the autopsy window has passed.
	qRoot := filepath.Join(s.dir, quarantineDir)
	if ents, err := os.ReadDir(qRoot); err == nil {
		for _, de := range ents {
			if os.Remove(filepath.Join(qRoot, de.Name())) == nil {
				st.PurgedQuarantine++
			}
		}
	}
	return st, nil
}

// countWriter tracks bytes written through it.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(b []byte) (int, error) {
	n, err := c.w.Write(b)
	c.n += int64(n)
	return n, err
}

// countReader tracks bytes read through it.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(b []byte) (int, error) {
	n, err := c.r.Read(b)
	c.n += int64(n)
	return n, err
}
