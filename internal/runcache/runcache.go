// Package runcache is the content-addressed on-disk store that makes
// repeated experiment sweeps bound by simulation instead of generation:
// it memoizes generated workload sets (as .strextrace artifacts, see
// internal/tracefile) and completed run results (as checksummed binary
// records, see record.go) under stable hashes of everything that
// determines their content.
//
// Keying discipline. A set is a pure function of (workload name, seed,
// scale, transaction count, generator parameters) — SetKey captures
// exactly that, plus the trace format version and this package's
// FormatVersion. A run result is a pure function of (the full
// sim.Config, the scheduler selection, the workload set) — RunKey
// captures those, identifying the set by its SetKey hash. Keys never
// include code versions: if simulator or generator *behavior* changes,
// the cache must be wiped (or a different directory used) — see
// docs/TRACES.md for the invalidation rules and how CI keys its cache
// on the source hash to get this automatically.
//
// Layout on disk:
//
//	<dir>/traces/<hh>/<hash>.strextrace   memoized workload sets
//	<dir>/results/<hh>/<hash>.rec         memoized run records
//	<dir>/footprints/<hh>/<hash>.fp       memoized hybrid profiles
//
// where <hh> is the first two hex digits of the hash (fan-out keeps
// directories small). All writes are atomic (temp file + rename), so a
// cache directory may be shared by concurrent runs; readers only ever
// observe complete artifacts, and the trace and record CRCs reject torn
// or bit-flipped files that slipped past rename atomicity (e.g. on
// crash-prone filesystems). Such a file reads as a miss, counted in
// Stats as corrupt, and the re-run overwrites it.
//
// A nil *Cache is valid and means "caching disabled": every method is
// nil-receiver-safe, so callers thread the knob through without
// branching.
package runcache

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"strex/internal/atomicfile"
	"strex/internal/sim"
	"strex/internal/tracefile"
	"strex/internal/workload"
)

// FormatVersion versions the cache layout and key derivation. Bumping
// it orphans (but does not delete) every existing artifact.
const FormatVersion = 1

// DefaultDir returns the conventional cache location
// (os.UserCacheDir()/strex) — callers may pass any directory instead.
func DefaultDir() string {
	base, err := os.UserCacheDir()
	if err != nil {
		return filepath.Join(os.TempDir(), "strex-cache")
	}
	return filepath.Join(base, "strex")
}

// Stats counts cache traffic since the Cache was opened.
type Stats struct {
	TraceHits, TraceMisses         int64
	ResultHits, ResultMisses       int64
	FootprintHits, FootprintMisses int64
	// TraceCorrupt, ResultCorrupt and FootprintCorrupt count the misses
	// whose artifact existed but failed to read or decode (a torn file,
	// a flipped bit, a stale format), apart from those where it was
	// absent.
	TraceCorrupt, ResultCorrupt, FootprintCorrupt int64
	// BytesRead is the artifact volume served by hits; BytesWritten the
	// volume stored. Together with the hit counters they answer the
	// operational question "is this cache earning its disk": a warm
	// cache shows BytesRead ≫ BytesWritten.
	BytesRead, BytesWritten int64
}

// Cache is a handle on one cache directory. The zero value and nil are
// both "disabled"; Open validates and creates the directory.
type Cache struct {
	dir string

	traceHits, traceMisses                        atomic.Int64
	resultHits, resultMisses                      atomic.Int64
	footprintHits, footprintMisses                atomic.Int64
	traceCorrupt, resultCorrupt, footprintCorrupt atomic.Int64
	bytesRead, bytesWritten                       atomic.Int64
}

// Open returns a cache rooted at dir, creating it if needed.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("runcache: empty cache directory")
	}
	for _, sub := range []string{"traces", "results", "footprints"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("runcache: %w", err)
		}
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache root ("" when disabled).
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

// Enabled reports whether the handle actually persists anything.
func (c *Cache) Enabled() bool { return c != nil && c.dir != "" }

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		TraceHits:        c.traceHits.Load(),
		TraceMisses:      c.traceMisses.Load(),
		ResultHits:       c.resultHits.Load(),
		ResultMisses:     c.resultMisses.Load(),
		FootprintHits:    c.footprintHits.Load(),
		FootprintMisses:  c.footprintMisses.Load(),
		TraceCorrupt:     c.traceCorrupt.Load(),
		ResultCorrupt:    c.resultCorrupt.Load(),
		FootprintCorrupt: c.footprintCorrupt.Load(),
		BytesRead:        c.bytesRead.Load(),
		BytesWritten:     c.bytesWritten.Load(),
	}
}

// addFileSize attributes an artifact's on-disk size to a byte counter
// (best-effort: a racing prune just loses the sample).
func (c *Cache) addFileSize(counter *atomic.Int64, path string) {
	if info, err := os.Stat(path); err == nil {
		counter.Add(info.Size())
	}
}

// SetKey identifies a generated workload set before it is generated.
// Workload must be the canonical registry name (aliases would fork the
// key space); Extra carries canonicalized generator parameters that are
// not covered by Seed/Scale (e.g. synth knobs). TypeID is -1 for the
// mixed benchmark stream and a type index for GenerateTyped sets.
type SetKey struct {
	Workload string
	Seed     uint64
	Scale    int
	Txns     int
	TypeID   int
	Extra    string
}

// Hash returns the content address: a stable hex digest over every key
// field plus both format versions.
func (k SetKey) Hash() string {
	return digest("set", fmt.Sprintf("rc%d|tf%d|%s|seed=%d|scale=%d|txns=%d|type=%d|%s",
		FormatVersion, tracefile.Version, k.Workload, k.Seed, k.Scale, k.Txns, k.TypeID, k.Extra))
}

// RunKey identifies one simulation run. Config is hashed in full (every
// field participates, so any config change is a clean miss); Sched is
// the scheduler selection including its parameters (e.g. "strex/team=10"
// or an experiment cell label); SetID is the workload identity — a
// SetKey.Hash(), possibly decorated for derived sets.
type RunKey struct {
	Config sim.Config
	Sched  string
	SetID  string
	Extra  string
}

// Hash returns the run's content address.
func (k RunKey) Hash() string {
	// %#v prints every field of the config (nested structs included)
	// with names and types: a new Config field automatically changes
	// the canonical form, which is exactly the invalidation we want.
	return digest("run", fmt.Sprintf("rc%d|%#v|sched=%s|set=%s|%s",
		FormatVersion, k.Config, k.Sched, k.SetID, k.Extra))
}

func digest(kind, canonical string) string {
	h := sha256.Sum256([]byte(kind + "\x00" + canonical))
	return hex.EncodeToString(h[:])
}

func (c *Cache) tracePath(hash string) string {
	return filepath.Join(c.dir, "traces", hash[:2], hash+tracefile.Ext)
}

func (c *Cache) resultPath(hash string) string {
	return filepath.Join(c.dir, "results", hash[:2], hash+".rec")
}

// miss counts a miss, and counts it corrupt too unless the artifact was
// simply absent.
func (c *Cache) miss(misses, corrupt *atomic.Int64, err error) {
	misses.Add(1)
	if !errors.Is(err, fs.ErrNotExist) {
		corrupt.Add(1)
	}
}

// GetSet loads the memoized set for key, if present and intact. A
// corrupt artifact counts as a miss; the regenerated set overwrites it.
func (c *Cache) GetSet(key SetKey) (*workload.Set, bool) {
	if !c.Enabled() {
		return nil, false
	}
	path := c.tracePath(key.Hash())
	set, _, err := tracefile.Load(path)
	if err != nil {
		c.miss(&c.traceMisses, &c.traceCorrupt, err)
		return nil, false
	}
	c.traceHits.Add(1)
	c.addFileSize(&c.bytesRead, path)
	return set, true
}

// PutSet stores set under key (atomic; concurrent writers of the same
// key are benign because their content is identical by construction).
func (c *Cache) PutSet(key SetKey, set *workload.Set) error {
	if !c.Enabled() {
		return nil
	}
	path := c.tracePath(key.Hash())
	if err := tracefile.Save(path, set, tracefile.Provenance{
		Workload: key.Workload, Seed: key.Seed, Scale: key.Scale,
		TypeID: key.TypeID, Extra: key.Extra,
	}); err != nil {
		return err
	}
	c.addFileSize(&c.bytesWritten, path)
	return nil
}

// GetResult loads the memoized run record for key. A record that is
// absent, or fails its magic, version, length or CRC check, is a miss.
func (c *Cache) GetResult(key string) (Record, bool) {
	if !c.Enabled() {
		return Record{}, false
	}
	data, err := os.ReadFile(c.resultPath(key))
	var rec Record
	if err == nil {
		rec, err = decodeRecord(data)
	}
	if err != nil {
		c.miss(&c.resultMisses, &c.resultCorrupt, err)
		return Record{}, false
	}
	c.resultHits.Add(1)
	c.bytesRead.Add(int64(len(data)))
	return rec, true
}

// PutResult stores rec under key, atomically.
func (c *Cache) PutResult(key string, rec Record) error {
	if !c.Enabled() {
		return nil
	}
	data := encodeRecord(rec)
	if err := atomicfile.WriteFile(c.resultPath(key), func(w io.Writer) error {
		_, werr := w.Write(data)
		return werr
	}); err != nil {
		return err
	}
	c.bytesWritten.Add(int64(len(data)))
	return nil
}

// Size returns the total bytes currently stored.
func (c *Cache) Size() (int64, error) {
	if !c.Enabled() {
		return 0, nil
	}
	var total int64
	err := filepath.WalkDir(c.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return nil // raced with a concurrent Prune/replace
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// pruneTempGrace is how old a dot-prefixed temp file must be before
// Prune treats it as orphaned. Sharded execution points several worker
// processes at one cache directory, so a temp file may be a write in
// flight in another process — removing it would break that writer's
// rename. Anything older than the grace period is debris from a crash.
var pruneTempGrace = 15 * time.Minute

// Prune evicts least-recently-modified artifacts until the cache is at
// or below maxBytes (0 empties it entirely). Every file under the cache
// root counts and may go: traces, result records, footprint records,
// and result records in the retired JSON form
// (results/<hh>/<hash>.json), which nothing reads any more. It returns
// the number of files removed. Orphaned temp files (older than
// pruneTempGrace) are always removed; young ones are left alone as
// probable in-flight writes from a concurrent process. Prune is safe to
// run while other processes read and write the same directory: files
// that vanish between the scan and the removal are simply counted as
// already gone. No CLI or daemon calls Prune: a cache directory grows
// until it is deleted, or until a Go caller prunes it.
func (c *Cache) Prune(maxBytes int64) (int, error) {
	if !c.Enabled() {
		return 0, nil
	}
	type file struct {
		path  string
		size  int64
		mtime int64
	}
	var files []file
	var total int64
	err := filepath.WalkDir(c.dir, func(path string, d fs.DirEntry, err error) error {
		if errors.Is(err, fs.ErrNotExist) {
			return nil // raced with a concurrent Prune/rename
		}
		if err != nil || d.IsDir() {
			return err
		}
		info, ierr := d.Info()
		if ierr != nil {
			return nil
		}
		if filepath.Base(path)[0] == '.' {
			if time.Since(info.ModTime()) > pruneTempGrace {
				os.Remove(path) // orphaned temp file from a crashed writer
			}
			return nil
		}
		files = append(files, file{path, info.Size(), info.ModTime().UnixNano()})
		total += info.Size()
		return nil
	})
	if err != nil {
		return 0, err
	}
	if total <= maxBytes {
		return 0, nil
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime < files[j].mtime })
	removed := 0
	for _, f := range files {
		if total <= maxBytes {
			break
		}
		err := os.Remove(f.path)
		if err == nil {
			removed++
		}
		if err == nil || errors.Is(err, fs.ErrNotExist) {
			// Either we removed it or a concurrent pruner beat us to it;
			// both ways those bytes are no longer in the cache.
			total -= f.size
		}
	}
	return removed, nil
}
