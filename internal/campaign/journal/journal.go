// Package journal is the checkpoint stream behind campaign
// checkpoint/resume: an append-only log of (cache key, Metrics blob)
// records written as cells complete. An interrupted campaign replays
// the journal and schedules only the remainder.
//
// The format is crash-tolerant by construction: each record is CRC
// framed, and replay stops at the first damaged or truncated record —
// a process killed mid-append loses at most the record being written,
// never the valid prefix. Resuming cuts any damaged tail and appends
// after the valid prefix of the same file, so a campaign can be
// interrupted and resumed any number of times.
package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// recMagic starts every record, letting replay resynchronise sanity
// rather than misparse garbage as a length.
const recMagic = 0xA7

// Writer appends records to a journal file. Append is safe for
// concurrent use — the campaign engine calls it from worker
// completions.
type Writer struct {
	mu sync.Mutex
	f  *os.File
	bw *bufio.Writer
}

// Create opens path for appending, creating it if missing. A tail torn
// by a crash mid-append is cut off first: records appended behind
// damaged bytes would be invisible to Replay, which stops at the damage.
func Create(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	n, err := validPrefix(f)
	if err == nil {
		err = f.Truncate(n)
	}
	if err == nil {
		_, err = f.Seek(n, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Writer{f: f, bw: bufio.NewWriter(f)}, nil
}

// validPrefix returns the byte length of r's leading run of intact
// records. Damage ends the run; only a failing read is an error, so a
// read fault never passes for a torn tail and truncates good records.
func validPrefix(r io.Reader) (int64, error) {
	cr := &countingReader{r: r}
	br := bufio.NewReader(cr)
	var n int64
	for {
		if _, _, err := readRecord(br); err != nil {
			return n, cr.err
		}
		n = cr.n - int64(br.Buffered())
	}
}

// countingReader counts the bytes read through it and keeps the first
// read error other than EOF.
type countingReader struct {
	r   io.Reader
	n   int64
	err error
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	if err != nil && err != io.EOF && c.err == nil {
		c.err = err
	}
	return n, err
}

// Append writes one completed-cell record and flushes it to the OS, so
// a crash of this process cannot lose an acknowledged cell.
func (w *Writer) Append(key string, blob []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	rec := make([]byte, 0, 16+len(key)+len(blob))
	rec = append(rec, recMagic)
	rec = binary.AppendUvarint(rec, uint64(len(key)))
	rec = append(rec, key...)
	rec = binary.AppendUvarint(rec, uint64(len(blob)))
	rec = append(rec, blob...)
	crc := crc32.ChecksumIEEE(rec[1:])
	rec = binary.LittleEndian.AppendUint32(rec, crc)
	if _, err := w.bw.Write(rec); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Close flushes and closes the file.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.bw.Flush()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Replay reads every valid record from path into a key → blob map
// (later records win, so re-journaled cells are harmless). A damaged or
// truncated tail ends replay silently — those cells simply re-run. The
// returned count is the number of valid records read. A missing file is
// an error: resuming from a journal that never existed is a user
// mistake, not an empty campaign.
func Replay(path string) (map[string][]byte, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	out := make(map[string][]byte)
	n := 0
	for {
		key, blob, err := readRecord(br)
		if err != nil {
			// Clean EOF or a damaged tail: keep the valid prefix.
			return out, n, nil
		}
		out[key] = blob
		n++
	}
}

// readRecord parses one record; any malformation is an error.
func readRecord(br *bufio.Reader) (string, []byte, error) {
	m, err := br.ReadByte()
	if err != nil {
		return "", nil, err
	}
	if m != recMagic {
		return "", nil, errors.New("journal: bad record magic")
	}
	body := make([]byte, 0, 64)
	readVar := func() (uint64, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, err
		}
		body = binary.AppendUvarint(body, v)
		return v, nil
	}
	readN := func(n uint64) ([]byte, error) {
		if n > 1<<30 {
			return nil, errors.New("journal: absurd record length")
		}
		start := len(body)
		body = append(body, make([]byte, n)...)
		if _, err := io.ReadFull(br, body[start:]); err != nil {
			return nil, err
		}
		return body[start:], nil
	}
	klen, err := readVar()
	if err != nil {
		return "", nil, err
	}
	key, err := readN(klen)
	if err != nil {
		return "", nil, err
	}
	blen, err := readVar()
	if err != nil {
		return "", nil, err
	}
	blob, err := readN(blen)
	if err != nil {
		return "", nil, err
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
		return "", nil, err
	}
	if binary.LittleEndian.Uint32(crcBuf[:]) != crc32.ChecksumIEEE(body) {
		return "", nil, errors.New("journal: record checksum mismatch")
	}
	return string(key), blob, nil
}
