package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// FileStore is the file-backed CheckpointStore: one CRC-framed append-only
// WAL (`wal.log`) plus one checkpoint file per operator (`ckpt-<op>.bin`),
// all under a single directory.
//
// Framing: every WAL record is [length u32le][crc32(payload) u32le][payload],
// the payload never empty. On open the log is scanned front to back; the
// first frame that is short, empty, oversized or fails its CRC marks the torn
// tail left by a mid-append crash, and the file is truncated there —
// un-acknowledged suffix dropped, durable prefix kept, exactly the contract
// ReplayWAL promises.
//
// Fsync policy: appends are batched — the file is fsynced after SyncEvery
// un-synced appends and on every explicit Sync call. The pipeline calls
// Sync at each tick boundary, so at most one tick's appends are ever
// exposed to a power loss, and the simulated crash points (which always
// fall on boundaries) lose nothing.
//
// Checkpoints are written to a temp file, fsynced, then renamed over the
// previous checkpoint: a crash mid-save leaves the old checkpoint intact.
type FileStore struct {
	dir       string
	syncEvery int

	mu       sync.Mutex
	wal      *os.File
	unsynced int
	closed   bool
}

// DefaultSyncEvery is the fsync batch size when none is configured.
const DefaultSyncEvery = 64

// maxWALRecord bounds a single record frame: AppendWAL refuses anything
// larger, and the scan treats it as corruption.
const maxWALRecord = 1 << 28

// FileStoreOption configures OpenFileStore.
type FileStoreOption func(*FileStore)

// WithSyncEvery sets the fsync batch size (<= 1 fsyncs every append).
func WithSyncEvery(n int) FileStoreOption {
	return func(fs *FileStore) { fs.syncEvery = n }
}

// OpenFileStore opens (creating if needed) the store rooted at dir and
// truncates any torn WAL tail left by a previous crash.
func OpenFileStore(dir string, opts ...FileStoreOption) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create store dir: %w", err)
	}
	fs := &FileStore{dir: dir, syncEvery: DefaultSyncEvery}
	for _, opt := range opts {
		opt(fs)
	}
	if fs.syncEvery < 1 {
		fs.syncEvery = 1
	}
	f, err := os.OpenFile(fs.walPath(), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open wal: %w", err)
	}
	fs.wal = f
	if err := fs.truncateTornTail(); err != nil {
		f.Close()
		return nil, err
	}
	return fs, nil
}

// Dir returns the directory the store is rooted at — what a recovering
// process reopens after the original store handle died with it.
func (fs *FileStore) Dir() string { return fs.dir }

func (fs *FileStore) walPath() string { return filepath.Join(fs.dir, "wal.log") }

func (fs *FileStore) ckptPath(op int) string {
	return filepath.Join(fs.dir, fmt.Sprintf("ckpt-%d.bin", op))
}

// truncateTornTail scans the WAL and cuts it at the first damaged frame,
// positioning the write offset at the new end. Only called from
// OpenFileStore, before the store is shared, but it takes the lock anyway
// so the wal-handle guard discipline holds everywhere.
func (fs *FileStore) truncateTornTail() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	end, err := scanWALFile(fs.wal, nil)
	if err != nil {
		return err
	}
	if err := fs.wal.Truncate(end); err != nil {
		return fmt.Errorf("storage: truncate torn wal tail: %w", err)
	}
	if _, err := fs.wal.Seek(end, io.SeekStart); err != nil {
		return fmt.Errorf("storage: seek wal end: %w", err)
	}
	return nil
}

// scanWALFile is scanWAL over the whole of f as it is now.
func scanWALFile(f *os.File, visit func(rec []byte) error) (int64, error) {
	info, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("storage: stat wal: %w", err)
	}
	return scanWAL(f, info.Size(), visit)
}

// scanWAL walks intact frames from the start of r, which holds size bytes,
// calling visit (when non-nil) with each payload, and returns the byte offset
// where the intact prefix ends. Damage — short header, a length word that is
// zero (crc32 of nothing is 0, so a zero-filled tail would otherwise read as
// empty records), oversized or past the bytes that remain, CRC mismatch —
// ends the scan without an error: that is the torn tail. The length word is
// checked against size before the payload buffer is made, so a corrupt one
// cannot allocate more than the log holds. A read that fails for any reason
// other than running out of file is an error, never a tail to cut: the bytes
// past it may be acknowledged records.
func scanWAL(r io.ReaderAt, size int64, visit func(rec []byte) error) (int64, error) {
	var off int64
	var hdr [8]byte
	for size-off >= int64(len(hdr)) {
		if n, err := r.ReadAt(hdr[:], off); n < len(hdr) {
			return off, tornRead(err)
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > maxWALRecord || n > size-off-int64(len(hdr)) {
			return off, nil
		}
		payload := make([]byte, n)
		if got, err := r.ReadAt(payload, off+int64(len(hdr))); got < len(payload) {
			return off, tornRead(err)
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return off, nil
		}
		if visit != nil {
			if err := visit(payload); err != nil {
				return off, err
			}
		}
		off += int64(len(hdr)) + n
	}
	return off, nil
}

// tornRead classifies a short ReadAt: running out of file is the torn tail
// (nil), anything else is an I/O error.
func tornRead(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return nil
	}
	return fmt.Errorf("storage: read wal: %w", err)
}

// AppendWAL frames and appends one record, fsyncing per the batch policy. It
// writes only frames the scan accepts: an empty or oversized record is
// refused.
func (fs *FileStore) AppendWAL(rec []byte) error {
	if len(rec) == 0 || len(rec) > maxWALRecord {
		return fmt.Errorf("storage: wal record of %d bytes (want 1..%d)", len(rec), maxWALRecord)
	}
	frame := make([]byte, 8+len(rec))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(rec)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(rec))
	copy(frame[8:], rec)

	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return ErrClosed
	}
	if _, err := fs.wal.Write(frame); err != nil {
		return fmt.Errorf("storage: append wal: %w", err)
	}
	fs.unsynced++
	if fs.unsynced >= fs.syncEvery {
		return fs.syncLocked()
	}
	return nil
}

// Sync fsyncs any batched appends; the caller holds no lock.
func (fs *FileStore) Sync() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return ErrClosed
	}
	return fs.syncLocked()
}

// syncLocked flushes the WAL file; the caller holds fs.mu.
func (fs *FileStore) syncLocked() error {
	if fs.unsynced == 0 {
		return nil
	}
	if err := fs.wal.Sync(); err != nil {
		return fmt.Errorf("storage: fsync wal: %w", err)
	}
	fs.unsynced = 0
	return nil
}

// ReplayWAL re-reads the log from the start through a separate read handle,
// so it is safe while the store is open for appends (recovery re-opens the
// store, but the audit path replays a live one).
func (fs *FileStore) ReplayWAL(visit func(rec []byte) error) error {
	fs.mu.Lock()
	if fs.closed {
		fs.mu.Unlock()
		return ErrClosed
	}
	if err := fs.syncLocked(); err != nil {
		fs.mu.Unlock()
		return err
	}
	fs.mu.Unlock()
	f, err := os.Open(fs.walPath())
	if err != nil {
		return fmt.Errorf("storage: open wal for replay: %w", err)
	}
	defer f.Close()
	_, err = scanWALFile(f, visit)
	return err
}

// ResetWAL discards the log contents.
func (fs *FileStore) ResetWAL() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return ErrClosed
	}
	if err := fs.wal.Truncate(0); err != nil {
		return fmt.Errorf("storage: reset wal: %w", err)
	}
	if _, err := fs.wal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("storage: seek wal start: %w", err)
	}
	fs.unsynced = 0
	if err := fs.wal.Sync(); err != nil {
		return fmt.Errorf("storage: fsync reset wal: %w", err)
	}
	return nil
}

// SaveCheckpoint atomically replaces op's checkpoint via write-temp,
// fsync, rename.
func (fs *FileStore) SaveCheckpoint(op int, data []byte) error {
	fs.mu.Lock()
	closed := fs.closed
	fs.mu.Unlock()
	if closed {
		return ErrClosed
	}
	final := fs.ckptPath(op)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: create checkpoint temp: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("storage: write checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("storage: fsync checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("storage: close checkpoint temp: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("storage: publish checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads op's checkpoint; a missing file is ok=false.
func (fs *FileStore) LoadCheckpoint(op int) ([]byte, bool, error) {
	data, err := os.ReadFile(fs.ckptPath(op))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("storage: read checkpoint: %w", err)
	}
	return data, true, nil
}

// Close flushes and closes the WAL handle; the directory stays readable by
// a later OpenFileStore.
func (fs *FileStore) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return nil
	}
	if err := fs.syncLocked(); err != nil {
		return err
	}
	fs.closed = true
	return fs.wal.Close()
}

var _ CheckpointStore = (*FileStore)(nil)
