package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"time"

	"fastppr/internal/graph"
	"fastppr/internal/walkstore"
)

// WAL record kinds. Add/ReplaceTail/Remove journal segment mutations (one
// record per walkstore epoch tick); Commit is an application-level marker
// carrying an edge cursor and an opaque state blob (the maintainers store
// their serialized update-RNG state there) so a storm can resume
// deterministically from any durable prefix. RemoveEdge is a graph-level
// marker — the walk store holds no adjacency, so edge deletions leave no
// mutation record of their own when they repair nothing; journaling them
// explicitly lets recovery prove which deletions were durable.
const (
	recAdd byte = iota + 1
	recReplaceTail
	recRemove
	recCommit
	recRemoveEdge
)

// maxPayload caps a decoded record's declared payload size; a frame claiming
// more is treated like any other failed frame (torn tail or corruption,
// depending on what follows).
const maxPayload = 1 << 30

// Rec is one decoded WAL record. Seq is the store epoch after the mutation
// (for Commit and RemoveEdge records: the epoch of the last mutation before
// them — neither advances the store epoch by itself).
type Rec struct {
	Seq    int64
	Kind   byte
	ID     walkstore.SegmentID
	Side   walkstore.Side
	Keep   int
	Path   []graph.NodeID // add path, or replacement tail
	Cursor int64          // commit only
	State  []byte         // commit only
	Edge   graph.Edge     // remove-edge only
}

// SyncPolicy selects when the WAL is fsynced.
type SyncPolicy int

const (
	// SyncNone never fsyncs on the append path (the OS decides; Close still
	// syncs). A kill -9 loses only user-space buffered records — recovery
	// stays correct from whatever prefix reached the file.
	SyncNone SyncPolicy = iota
	// SyncEveryRecord flushes and fsyncs after every record: no committed
	// record is ever lost, at one fsync per mutation.
	SyncEveryRecord
	// SyncEveryN flushes and fsyncs once per Config.SyncEveryN records.
	SyncEveryN
	// SyncInterval flushes and fsyncs on a timer (Config.SyncInterval).
	SyncInterval
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncNone:
		return "none"
	case SyncEveryRecord:
		return "record"
	case SyncEveryN:
		return "every-n"
	case SyncInterval:
		return "interval"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// wal owns the append side of the log file. Appends come from two places:
// the walkstore mutation hook (under the store's segment lock) and Commit
// markers (from the application thread); mu serializes them, and nests
// strictly inside the store's segment lock — wal methods never call back
// into the store.
type wal struct {
	mu       sync.Mutex
	f        File
	bw       *bufio.Writer
	seq      int64 // store epoch after the last mutation record
	records  int64
	bytes    int64
	unsynced int
	err      error  // sticky: first append/sync failure stops the log loudly
	buf      []byte // one framed record, reused by every append under mu
	cfg      Config

	timerStop chan struct{}
	timerDone chan struct{}
}

func openWAL(cfg Config, path string, seq int64) (*wal, error) {
	f, err := cfg.openFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	w := &wal{f: f, bw: bufio.NewWriter(f), seq: seq, cfg: cfg}
	if cfg.Policy == SyncInterval {
		iv := cfg.SyncInterval
		if iv <= 0 {
			iv = 100 * time.Millisecond
		}
		w.timerStop = make(chan struct{})
		w.timerDone = make(chan struct{})
		go func() {
			t := time.NewTicker(iv)
			defer t.Stop()
			defer close(w.timerDone)
			for {
				select {
				case <-w.timerStop:
					return
				case <-t.C:
					w.mu.Lock()
					w.syncLocked()
					w.mu.Unlock()
				}
			}
		}()
	}
	return w, nil
}

// appendRec frames, writes, and policy-syncs one record. Errors are sticky:
// after the first failure every subsequent append is a loud no-op, so a full
// disk stops journaling without corrupting the tail (recovery then truncates
// whatever partial frame made it out).
func (w *wal) appendRec(r Rec) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if r.Kind == recCommit || r.Kind == recRemoveEdge {
		r.Seq = w.seq // epoch of the last mutation before this marker
	}
	// Frame into the reused buffer: an 8-byte header (payload length, CRC32)
	// filled in once the payload is encoded behind it.
	w.buf = encodeRec(append(w.buf[:0], make([]byte, 8)...), r)
	payload := w.buf[8:]
	binary.LittleEndian.PutUint32(w.buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.buf[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.bw.Write(w.buf); err != nil {
		w.err = fmt.Errorf("persist: wal append: %w", err)
		return w.err
	}
	w.records++
	w.bytes += int64(len(w.buf))
	w.unsynced++
	if r.Kind != recCommit && r.Kind != recRemoveEdge {
		w.seq = r.Seq
	}
	switch w.cfg.Policy {
	case SyncEveryRecord:
		w.syncLocked()
	case SyncEveryN:
		n := w.cfg.SyncEveryN
		if n <= 0 {
			n = 64
		}
		if w.unsynced >= n {
			w.syncLocked()
		}
	}
	return w.err
}

func (w *wal) syncLocked() {
	if w.err != nil || w.unsynced == 0 {
		return
	}
	if err := w.bw.Flush(); err != nil {
		w.err = fmt.Errorf("persist: wal flush: %w", err)
		return
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("persist: wal fsync: %w", err)
		return
	}
	w.unsynced = 0
}

func (w *wal) close() error {
	if w.timerStop != nil {
		close(w.timerStop)
		<-w.timerDone
		w.timerStop = nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.syncLocked()
	err := w.err
	if cerr := w.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// encodeRec appends r's payload encoding to b.
func encodeRec(b []byte, r Rec) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(r.Seq))
	b = append(b, r.Kind)
	switch r.Kind {
	case recAdd:
		b = binary.LittleEndian.AppendUint64(b, uint64(r.ID))
		b = append(b, byte(int8(r.Side)))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Path)))
		for _, v := range r.Path {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
	case recReplaceTail:
		b = binary.LittleEndian.AppendUint64(b, uint64(r.ID))
		b = binary.LittleEndian.AppendUint32(b, uint32(r.Keep))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Path)))
		for _, v := range r.Path {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
	case recRemove:
		b = binary.LittleEndian.AppendUint64(b, uint64(r.ID))
	case recCommit:
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Cursor))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(r.State)))
		b = append(b, r.State...)
	case recRemoveEdge:
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Edge.From))
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Edge.To))
	default:
		panic(fmt.Sprintf("persist: encoding unknown record kind %d", r.Kind))
	}
	return b
}

func decodeRec(payload []byte) (Rec, error) {
	var r Rec
	rd := byteReader{b: payload}
	r.Seq = int64(rd.u64())
	r.Kind = rd.u8()
	switch r.Kind {
	case recAdd:
		r.ID = walkstore.SegmentID(rd.u64())
		r.Side = walkstore.Side(int8(rd.u8()))
		r.Path = rd.nodes(rd.u32())
	case recReplaceTail:
		r.ID = walkstore.SegmentID(rd.u64())
		r.Keep = int(rd.u32())
		r.Path = rd.nodes(rd.u32())
	case recRemove:
		r.ID = walkstore.SegmentID(rd.u64())
	case recCommit:
		r.Cursor = int64(rd.u64())
		n := rd.u32()
		r.State = append([]byte(nil), rd.bytes(int(n))...)
	case recRemoveEdge:
		r.Edge.From = graph.NodeID(rd.u64())
		r.Edge.To = graph.NodeID(rd.u64())
	default:
		return r, fmt.Errorf("unknown record kind %d", r.Kind)
	}
	if rd.err != nil {
		return r, rd.err
	}
	if len(rd.b) != rd.off {
		return r, fmt.Errorf("record kind %d has %d trailing payload bytes", r.Kind, len(rd.b)-rd.off)
	}
	return r, nil
}

// byteReader is a bounds-checked little-endian cursor; the first overrun
// latches err and zero-fills subsequent reads.
type byteReader struct {
	b   []byte
	off int
	err error
}

func (r *byteReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.b) {
		r.err = fmt.Errorf("record payload truncated at offset %d", r.off)
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *byteReader) u8() byte {
	if s := r.take(1); s != nil {
		return s[0]
	}
	return 0
}

func (r *byteReader) u32() uint32 {
	if s := r.take(4); s != nil {
		return binary.LittleEndian.Uint32(s)
	}
	return 0
}

func (r *byteReader) u64() uint64 {
	if s := r.take(8); s != nil {
		return binary.LittleEndian.Uint64(s)
	}
	return 0
}

func (r *byteReader) bytes(n int) []byte { return r.take(n) }

func (r *byteReader) nodes(n uint32) []graph.NodeID {
	if r.err != nil {
		return nil
	}
	if int64(n)*8 > int64(len(r.b)-r.off) {
		r.err = fmt.Errorf("record declares %d nodes past payload end", n)
		return nil
	}
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = graph.NodeID(r.u64())
	}
	return out
}

// readWAL decodes the log at path. A frame that fails — header cut off at
// EOF, declared payload running past EOF, or CRC mismatch — is a torn tail
// if nothing but zero bytes (a crashed preallocation) or nothing at all
// follows it: the records before it are returned and tornBytes reports how
// much the caller should truncate. A failed frame followed by non-zero data
// is mid-file corruption and fails loudly with ErrCorrupt — recovery never
// silently skips over a damaged committed record. A missing file is an
// empty log.
func readWAL(path string) (recs []Rec, tornBytes int64, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	off := 0
	for off < len(buf) {
		rest := buf[off:]
		if len(rest) < 8 {
			return recs, int64(len(rest)), nil // header cut off at EOF: torn
		}
		plen := int(binary.LittleEndian.Uint32(rest[0:4]))
		want := binary.LittleEndian.Uint32(rest[4:8])
		if plen > maxPayload || 8+plen > len(rest) {
			return recs, int64(len(rest)), nil // payload runs past EOF: torn
		}
		payload := rest[8 : 8+plen]
		if plen == 0 || crc32.ChecksumIEEE(payload) != want {
			// A failed frame whose declared extent is fully in the file (an
			// empty payload is never valid — crc32 of nothing is 0, so a
			// zero-filled preallocated region parses as an endless "valid"
			// zero frame without this guard). It is a torn tail if nothing
			// but zero bytes follow it; anything else after it means a
			// damaged record sits before intact data, which is corruption,
			// not a crash artifact.
			for _, c := range rest[8+plen:] {
				if c != 0 {
					return nil, 0, fmt.Errorf("%w: %s: damaged record at offset %d followed by non-zero data", ErrCorrupt, path, off)
				}
			}
			return recs, int64(len(rest)), nil
		}
		r, derr := decodeRec(payload)
		if derr != nil {
			// The frame's CRC matched, so this is not a torn write: the log
			// holds a record this build cannot interpret. Fail loudly.
			return nil, 0, fmt.Errorf("%w: %s at offset %d: %v", ErrCorrupt, path, off, derr)
		}
		recs = append(recs, r)
		off += 8 + plen
	}
	return recs, 0, nil
}
