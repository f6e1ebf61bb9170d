package campaign

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"mptcpsim/internal/scenario"
)

// The result cache is content-addressed: a completed run is stored under
// the SHA-256 of everything its report is a function of — the cache schema
// version, the code version (the facade derives it from a hash of
// api.txt and behaviour.lock), and scenario.AppendSpec's encoding of the
// full Spec, which carries the scenario seed. The scenario layer
// guarantees a run is a pure function of (spec, seed) — the fuzzer re-runs
// every generated scenario and compares RunReport digests — so a hit can
// stand in for a simulation exactly. An entry is the schema line followed
// by scenario.AppendReport's encoding, which carries every float64 as its
// bits, so a warm re-run folds the identical samples and produces the
// byte-identical aggregate.
//
// Layout: one immutable pack per campaign identity,
//
//	<dir>/<hex SHA-256(schema ∥ 0 ∥ version ∥ 0 ∥ JSON of the filled Spec with N cleared)>.pack
//
// holding one record per scenario index, in index order. A record is the
// scenario's 32-byte content address followed by its entry. The records
// are followed by the trailer: each record's offset, then the record
// count, every one a little-endian uint64. The pack's name only locates a
// record; each record is checked against its own key, so a pack copied,
// renamed or damaged by hand yields misses, never a wrong hit. A Run that
// delivers a simulated scenario writes a new pack to a temp file and
// renames it into place once, at its end, so concurrent campaigns sharing
// one directory never observe a torn pack.

// cacheSchema versions the on-disk format: it is hashed into every key and
// every pack name and opens every entry, so a tree written under another
// schema is never addressed, and a record of one never decodes. Bump it
// with any change to the pack layout, scenario.AppendSpec or
// scenario.AppendReport.
const cacheSchema = "mptcpsim-campaign-cache-v9"

// reportHeader opens every entry: a stale or foreign record fails on its
// first bytes after the key.
const reportHeader = cacheSchema + "\n"

// recordMin is the shortest record a pack can hold: a key and the schema
// line. It bounds the record count a pack's length admits.
const recordMin = sha256.Size + len(reportHeader)

// entryPool holds the blocks of records a job reads and the records a
// miss encodes, so a hit allocates for neither.
var entryPool = sync.Pool{New: func() any { b := make([]byte, 8<<10); return &b }}

// CacheKey returns the content address of one scenario run under the given
// code version: hex SHA-256 over the schema tag, a zero byte, the version,
// a zero byte, and scenario.AppendSpec's encoding of sp. A NaN or ±Inf
// anywhere in sp is an error.
func CacheKey(version string, sp *scenario.Spec) (string, error) {
	var buf []byte
	key, err := cacheKey(&buf, version, sp)
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(key[:]), nil
}

// entryKey is CacheKey's digest before it becomes hex: a record opens with
// it.
type entryKey [sha256.Size]byte

// cacheKey is CacheKey without the hex. It encodes what it hashes into
// *buf, which it grows, so that one buffer serves all of a job's keys.
func cacheKey(buf *[]byte, version string, sp *scenario.Spec) (entryKey, error) {
	b := append((*buf)[:0], cacheSchema...)
	b = append(b, 0)
	b = append(b, version...)
	b = append(b, 0)
	b, err := scenario.AppendSpec(b, sp)
	*buf = b
	if err != nil {
		return entryKey{}, err
	}
	return sha256.Sum256(b), nil
}

// packPath names the pack of the filled campaign sp under dir and the
// given code version. N is cleared, so every length of one campaign finds
// the same pack.
func packPath(dir, version string, sp *Spec) (string, error) {
	id := *sp
	id.N = 0
	data, err := json.Marshal(&id)
	if err != nil {
		return "", fmt.Errorf("campaign: naming result cache pack: %w", err)
	}
	sum := sha256.Sum256(append([]byte(cacheSchema+"\x00"+version+"\x00"), data...))
	return filepath.Join(dir, hex.EncodeToString(sum[:])+".pack"), nil
}

// record encodes a simulated run as its pack record, in a buffer from
// entryPool that the fold hands back once the record is written.
func record(key entryKey, rep *scenario.RunReport) *[]byte {
	bp := entryPool.Get().(*[]byte)
	b := append(append((*bp)[:0], key[:]...), reportHeader...)
	*bp = scenario.AppendReport(b, rep)
	return bp
}

// pack is a pack file as a Run found it: the open file, and the bounds of
// the records the Run addresses. The zero pack holds no records.
type pack struct {
	f packFile
	// bounds holds little-endian uint64 offsets: record i is the bytes
	// [bound(i), bound(i+1)) for i < addressed().
	bounds []byte
	count  int   // records in the file
	end    int64 // where the records end and the trailer begins
}

// packFile is what a pack is read from: the *os.File openPack opens, or
// bytes in memory when a test reads arbitrary ones.
type packFile interface {
	io.ReaderAt
	io.Closer
}

// openPack opens the pack at path and reads the bounds of its first n
// records. A pack that is missing, short or malformed holds no records:
// every read of it misses, and the Run's commit replaces it.
func openPack(path string, n int) pack {
	f, size, err := openFile(path)
	if err != nil {
		return pack{}
	}
	return readPack(f, size, n)
}

// openFile opens the file at path for reading and returns its size. It is
// a variable so that a test can count the reads a Run makes.
var openFile = func(path string) (packFile, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, st.Size(), nil
}

// readPack reads the trailer of the size-byte pack f and the bounds of its
// first n records, closing f if they do not hold.
func readPack(f packFile, size int64, n int) pack {
	p := pack{f: f}
	if !p.readTrailer(size) || !p.load(n) {
		f.Close()
		return pack{}
	}
	return p
}

// readTrailer reads the record count and checks it against the pack's
// size before anything is sized from it.
func (p *pack) readTrailer(size int64) bool {
	var word [8]byte
	if size < int64(len(word)) {
		return false
	}
	if _, err := p.f.ReadAt(word[:], size-8); err != nil {
		return false
	}
	// Every record takes recordMin bytes and its offset eight more.
	count := binary.LittleEndian.Uint64(word[:])
	if count > uint64(size-8)/(8+uint64(recordMin)) {
		return false
	}
	p.count = int(count)
	p.end = size - 8 - 8*int64(count)
	return true
}

// load reads the bounds of the first min(n, count) records in one read and
// checks them: the first record opens the file, every record is at least
// recordMin long, and the last ends no later than the trailer starts. A
// pack whose bounds fail keeps the bounds it had.
func (p *pack) load(n int) bool {
	m := min(n, p.count)
	words := m // the offset after the last record read, unless it is the end
	if m < p.count {
		words++
	}
	b := make([]byte, 8*(m+1))
	if words > 0 {
		if _, err := p.f.ReadAt(b[:8*words], p.end); err != nil {
			return false
		}
	}
	if m == p.count {
		binary.LittleEndian.PutUint64(b[8*m:], uint64(p.end))
	}
	if binary.LittleEndian.Uint64(b) != 0 {
		return false
	}
	for i, lo := 1, uint64(0); i <= m; i++ {
		hi := binary.LittleEndian.Uint64(b[8*i:])
		if hi < lo+uint64(recordMin) || hi > uint64(p.end) {
			return false
		}
		lo = hi
	}
	p.bounds = b
	return true
}

// addressed is how many records the pack's bounds cover.
func (p *pack) addressed() int { return max(len(p.bounds)/8-1, 0) }

// bound is the offset at which record i starts, and record i-1 ends.
func (p *pack) bound(i int) int64 {
	return int64(binary.LittleEndian.Uint64(p.bounds[8*i:]))
}

// readBlock reads records lo..hi-1, which the bounds address, into *buf
// with one positional read and returns their bytes; record slices each
// record out of them. A *buf too short is replaced by one twice the
// block's length, so that the pooled buffers stop growing once they have
// met the campaign's larger blocks. The length was checked against the
// file's when the bounds were loaded.
func (p *pack) readBlock(lo, hi int, buf *[]byte) ([]byte, bool) {
	if lo >= hi || hi > p.addressed() {
		return nil, false
	}
	start, end := p.bound(lo), p.bound(hi)
	if int64(cap(*buf)) < end-start {
		*buf = make([]byte, 2*(end-start))
	}
	data := (*buf)[:end-start]
	if _, err := p.f.ReadAt(data, start); err != nil {
		return nil, false
	}
	return data, true
}

// record is record i of data, the bytes readBlock read from record lo on.
func (p *pack) record(data []byte, lo, i int) []byte {
	base := p.bound(lo)
	return data[p.bound(i)-base : p.bound(i+1)-base]
}

// hit decodes rec, a record of the pack, into rep and reports whether it
// is the run of sp, whose content address is key. The checks run in this
// order: key, schema line, canonical decode, Name and Seed. A record filed
// under another key, of another schema, undecodable, or that decodes to
// some other run (a pack copied or spliced by hand) is a miss, never an
// error: the caller falls back to simulating and the Run's commit rewrites
// the record. After a miss rep holds nothing of use.
func hit(rec []byte, key entryKey, sp *scenario.Spec, rep *scenario.RunReport) bool {
	// The bounds give every record at least recordMin bytes.
	if !bytes.Equal(rec[:sha256.Size], key[:]) {
		return false
	}
	data := rec[sha256.Size:]
	if string(data[:len(reportHeader)]) != reportHeader {
		return false
	}
	// The decode copies every string it does not already hold out of data,
	// so the block's buffer can go back to the pool under the report.
	// Holding the spec's name lets it keep that one rather than copy the
	// record's equal bytes.
	rep.Name = sp.Name
	err := scenario.DecodeReportInto(rep, data[len(reportHeader):])
	return err == nil && rep.Name == sp.Name && rep.Seed == sp.Seed
}

// close releases the pack's file.
func (p *pack) close() {
	if p.f != nil {
		p.f.Close()
		p.f = nil
	}
}

// cache is one Run's view of its campaign's pack: the pack as the Run
// found it, which the workers read, and — from the first simulated
// scenario the fold delivers — the pack the Run will commit, which the fold
// writes.
type cache struct {
	path string
	old  pack
	next *packWriter // nil until a delivered scenario was simulated
	done int         // scenarios kept: the Run's delivered gap-free prefix
}

// openCache opens the pack of the filled campaign sp under dir and reads
// the bounds of its first sp.N records. An empty dir means no cache: the
// nil *cache tells Run to derive no key, encode no record and open no
// file. A missing dir is created 0777 less the umask, as any directory the
// user creates, so that under a umask that lets a group write the packs
// createTemp makes, the group can also rename new ones into it.
func openCache(dir, version string, sp *Spec) (*cache, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("campaign: opening result cache: %w", err)
	}
	path, err := packPath(dir, version, sp)
	if err != nil {
		return nil, err
	}
	return &cache{path: path, old: openPack(path, sp.N)}, nil
}

// keep adds delivered scenario i to the pack the Run commits: a hit is
// copied from the old pack, a simulated run is written from the record
// its outcome carries, whose buffer goes back to entryPool. Until the
// first simulated run nothing is written: a fully warm Run writes no
// pack. A scenario past a gap — the stream delivers on past a job that
// panicked — is not kept, so every record stays at its index.
func (c *cache) keep(i int, o *outcome) error {
	if i != c.done {
		return nil
	}
	c.done++
	if o.hit {
		if c.next != nil {
			c.next.copy(i)
		}
		return nil
	}
	if c.next == nil {
		tmp, err := createTemp(c.path)
		if err != nil {
			return fmt.Errorf("campaign: writing result cache: %w", err)
		}
		c.next = &packWriter{old: &c.old, tmp: tmp, w: bufio.NewWriter(tmp)}
		for j := 0; j < i; j++ {
			c.next.copy(j)
		}
	}
	c.next.add(*o.entry)
	entryPool.Put(o.entry)
	o.entry = nil
	if c.next.err != nil {
		return fmt.Errorf("campaign: writing result cache: %w", c.next.err)
	}
	return nil
}

// tempSeq numbers the temp files this process creates.
var tempSeq atomic.Uint64

// createTemp creates a new file beside path under a name no other file
// has, for a pack to be written to and renamed over path. Its mode is
// 0666 less the umask, as any file the user creates, so a cache directory
// shared by several users holds packs each of them can read; os.CreateTemp
// would make it 0600. The name carries the process id and a sequence
// number; a name left by a crashed process is skipped.
func createTemp(path string) (*os.File, error) {
	for tries := 0; ; tries++ {
		name := fmt.Sprintf("%s.tmp-%d-%d", path, os.Getpid(), tempSeq.Add(1))
		f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
		if err == nil || !errors.Is(err, fs.ErrExist) || tries == 100 {
			return f, err
		}
	}
}

// commit ends the Run's use of the cache. If the Run delivered a
// simulated scenario, the new pack gets the old pack's records past the
// delivered prefix, so a shorter or cancelled Run never shrinks what is
// cached, then its trailer, and is renamed over the old pack.
func (c *cache) commit() error {
	defer c.old.close()
	w := c.next
	if w == nil {
		return nil
	}
	c.next = nil
	if c.done < c.old.count && c.old.load(c.old.count) {
		for j := c.done; j < c.old.count; j++ {
			w.copy(j)
		}
	}
	err := w.finish()
	// Closed before the rename: not every platform replaces an open file.
	c.old.close()
	if err == nil {
		err = os.Rename(w.tmp.Name(), c.path)
	}
	if err != nil {
		os.Remove(w.tmp.Name())
		return fmt.Errorf("campaign: committing result cache: %w", err)
	}
	return nil
}

// packWriter writes a pack to its temp file, record by record in index
// order. Runs of consecutive records copied from the old pack are copied
// in one piece. Its first error sticks.
type packWriter struct {
	old    *pack
	tmp    *os.File
	w      *bufio.Writer
	size   int64  // the records' bytes, the pending copy included
	bounds []byte // the records' offsets, for the trailer
	lo, hi int64  // the old pack's bytes still to copy
	err    error
}

// mark starts a record at the current size.
func (w *packWriter) mark() {
	w.bounds = binary.LittleEndian.AppendUint64(w.bounds, uint64(w.size))
}

// copy appends the old pack's record i.
func (w *packWriter) copy(i int) {
	w.mark()
	lo, hi := w.old.bound(i), w.old.bound(i+1)
	if lo != w.hi {
		w.flush()
		w.lo = lo
	}
	w.hi = hi
	w.size += hi - lo
}

// add appends a record the Run simulated.
func (w *packWriter) add(rec []byte) {
	w.flush()
	w.mark()
	if w.err == nil {
		_, w.err = w.w.Write(rec)
	}
	w.size += int64(len(rec))
}

// flush copies the pending run of the old pack's records.
func (w *packWriter) flush() {
	if w.hi > w.lo && w.err == nil {
		_, w.err = io.Copy(w.w, io.NewSectionReader(w.old.f, w.lo, w.hi-w.lo))
	}
	w.lo = w.hi
}

// finish writes the trailer and closes the temp file.
func (w *packWriter) finish() error {
	w.flush()
	if w.err == nil {
		_, w.err = w.w.Write(binary.LittleEndian.AppendUint64(w.bounds, uint64(len(w.bounds)/8)))
	}
	if w.err == nil {
		w.err = w.w.Flush()
	}
	if err := w.tmp.Close(); w.err == nil {
		w.err = err
	}
	return w.err
}
