package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// stores returns one fresh instance of every CheckpointStore implementation
// so the semantic tests run against both; the cleanup closes file handles.
func stores(t *testing.T) map[string]CheckpointStore {
	t.Helper()
	fs, err := OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatalf("OpenFileStore: %v", err)
	}
	t.Cleanup(func() { fs.Close() })
	return map[string]CheckpointStore{
		"mem":  NewMemStore(),
		"file": fs,
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	for name, st := range stores(t) {
		t.Run(name, func(t *testing.T) {
			if _, ok, err := st.LoadCheckpoint(3); err != nil || ok {
				t.Fatalf("LoadCheckpoint on empty store: ok=%v err=%v", ok, err)
			}
			blob := []byte("first")
			if err := st.SaveCheckpoint(3, blob); err != nil {
				t.Fatalf("SaveCheckpoint: %v", err)
			}
			blob[0] = 'X' // the store must have copied (or persisted) it
			got, ok, err := st.LoadCheckpoint(3)
			if err != nil || !ok {
				t.Fatalf("LoadCheckpoint: ok=%v err=%v", ok, err)
			}
			if !bytes.Equal(got, []byte("first")) {
				t.Fatalf("checkpoint = %q, want %q", got, "first")
			}
			// Replacement is total: the new blob fully supersedes the old.
			if err := st.SaveCheckpoint(3, []byte("second-longer")); err != nil {
				t.Fatalf("SaveCheckpoint replace: %v", err)
			}
			got, _, _ = st.LoadCheckpoint(3)
			if !bytes.Equal(got, []byte("second-longer")) {
				t.Fatalf("replaced checkpoint = %q", got)
			}
			// Ops are independent slots.
			if _, ok, _ := st.LoadCheckpoint(4); ok {
				t.Fatal("op 4 checkpoint should not exist")
			}
		})
	}
}

func TestWALAppendReplayReset(t *testing.T) {
	for name, st := range stores(t) {
		t.Run(name, func(t *testing.T) {
			var want [][]byte
			for i := 0; i < 100; i++ {
				rec := []byte(fmt.Sprintf("record-%03d", i))
				want = append(want, rec)
				if err := st.AppendWAL(rec); err != nil {
					t.Fatalf("AppendWAL: %v", err)
				}
			}
			if err := st.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			var got [][]byte
			if err := st.ReplayWAL(func(rec []byte) error {
				got = append(got, append([]byte(nil), rec...))
				return nil
			}); err != nil {
				t.Fatalf("ReplayWAL: %v", err)
			}
			if len(got) != len(want) {
				t.Fatalf("replayed %d records, want %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
				}
			}
			// visit errors propagate and stop the walk.
			stop := fmt.Errorf("stop")
			calls := 0
			if err := st.ReplayWAL(func([]byte) error {
				calls++
				return stop
			}); err != stop {
				t.Fatalf("ReplayWAL error = %v, want stop", err)
			}
			if calls != 1 {
				t.Fatalf("visit called %d times after error, want 1", calls)
			}
			if err := st.ResetWAL(); err != nil {
				t.Fatalf("ResetWAL: %v", err)
			}
			n := 0
			st.ReplayWAL(func([]byte) error { n++; return nil })
			if n != 0 {
				t.Fatalf("replay after reset visited %d records", n)
			}
		})
	}
}

func TestFileStoreReopenSurvives(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStore(dir)
	if err != nil {
		t.Fatalf("OpenFileStore: %v", err)
	}
	fs.SaveCheckpoint(0, []byte("op0"))
	fs.AppendWAL([]byte("a"))
	fs.AppendWAL([]byte("b"))
	if err := fs.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := fs.AppendWAL([]byte("late")); err != ErrClosed {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}

	fs2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer fs2.Close()
	blob, ok, err := fs2.LoadCheckpoint(0)
	if err != nil || !ok || !bytes.Equal(blob, []byte("op0")) {
		t.Fatalf("checkpoint after reopen: %q ok=%v err=%v", blob, ok, err)
	}
	var got []string
	fs2.ReplayWAL(func(rec []byte) error { got = append(got, string(rec)); return nil })
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("wal after reopen = %v", got)
	}
	// Appends continue after the existing records, not over them.
	fs2.AppendWAL([]byte("c"))
	got = got[:0]
	fs2.ReplayWAL(func(rec []byte) error { got = append(got, string(rec)); return nil })
	if len(got) != 3 || got[2] != "c" {
		t.Fatalf("wal after reopen+append = %v", got)
	}
}

func TestFileStoreTornTailTruncation(t *testing.T) {
	cases := []struct {
		name string
		tear func([]byte) []byte // mutate the raw wal bytes
	}{
		{"partial header", func(b []byte) []byte { return append(b, 0x03, 0x00) }},
		{"partial payload", func(b []byte) []byte {
			frame := make([]byte, 8)
			binary.LittleEndian.PutUint32(frame[0:4], 100) // claims 100 payload bytes
			binary.LittleEndian.PutUint32(frame[4:8], 0)
			return append(append(b, frame...), []byte("only-a-few")...)
		}},
		{"crc mismatch", func(b []byte) []byte {
			payload := []byte("corrupt-me")
			frame := make([]byte, 8+len(payload))
			binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
			binary.LittleEndian.PutUint32(frame[4:8], 0xdeadbeef)
			copy(frame[8:], payload)
			return append(b, frame...)
		}},
		{"absurd length", func(b []byte) []byte {
			frame := make([]byte, 8)
			binary.LittleEndian.PutUint32(frame[0:4], 1<<30)
			return append(b, frame...)
		}},
		// What a crash under delayed allocation leaves: the file grew, the
		// data never landed. [len 0][crc 0] checksums correctly (crc32 of
		// nothing is 0), so only the empty-record rule stops it replaying as
		// five empty records.
		{"zero-filled tail", func(b []byte) []byte { return append(b, make([]byte, 40)...) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fs, err := OpenFileStore(dir)
			if err != nil {
				t.Fatalf("OpenFileStore: %v", err)
			}
			fs.AppendWAL([]byte("intact-1"))
			fs.AppendWAL([]byte("intact-2"))
			fs.Close()

			path := filepath.Join(dir, "wal.log")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read wal: %v", err)
			}
			intactLen := len(raw)
			if err := os.WriteFile(path, tc.tear(raw), 0o644); err != nil {
				t.Fatalf("write torn wal: %v", err)
			}

			fs2, err := OpenFileStore(dir)
			if err != nil {
				t.Fatalf("reopen torn: %v", err)
			}
			defer fs2.Close()
			var got []string
			fs2.ReplayWAL(func(rec []byte) error { got = append(got, string(rec)); return nil })
			if len(got) != 2 || got[0] != "intact-1" || got[1] != "intact-2" {
				t.Fatalf("intact prefix after torn-tail open = %v", got)
			}
			// The tail was physically truncated, not just skipped.
			info, err := os.Stat(path)
			if err != nil {
				t.Fatalf("stat wal: %v", err)
			}
			if info.Size() != int64(intactLen) {
				t.Fatalf("wal size after open = %d, want %d (torn tail truncated)", info.Size(), intactLen)
			}
			// New appends land cleanly after the truncated prefix.
			fs2.AppendWAL([]byte("post-recovery"))
			got = got[:0]
			fs2.ReplayWAL(func(rec []byte) error { got = append(got, string(rec)); return nil })
			if len(got) != 3 || got[2] != "post-recovery" {
				t.Fatalf("wal after recovery append = %v", got)
			}
		})
	}
}

func TestFileStoreFsyncBatching(t *testing.T) {
	fs, err := OpenFileStore(t.TempDir(), WithSyncEvery(4))
	if err != nil {
		t.Fatalf("OpenFileStore: %v", err)
	}
	defer fs.Close()
	for i := 0; i < 10; i++ {
		if err := fs.AppendWAL([]byte{byte(i)}); err != nil {
			t.Fatalf("AppendWAL: %v", err)
		}
	}
	// 10 appends with batch 4: two batch syncs fired, 2 records pending.
	fs.mu.Lock()
	pending := fs.unsynced
	fs.mu.Unlock()
	if pending != 2 {
		t.Fatalf("unsynced after 10 appends @4 = %d, want 2", pending)
	}
	if err := fs.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	fs.mu.Lock()
	pending = fs.unsynced
	fs.mu.Unlock()
	if pending != 0 {
		t.Fatalf("unsynced after Sync = %d, want 0", pending)
	}
	// Batched-but-unsynced records are still replayable from this process.
	fs.AppendWAL([]byte{0xff})
	n := 0
	if err := fs.ReplayWAL(func([]byte) error { n++; return nil }); err != nil {
		t.Fatalf("ReplayWAL: %v", err)
	}
	if n != 11 {
		t.Fatalf("replayed %d records, want 11", n)
	}
}

func TestFileStoreCheckpointReplaceLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStore(dir)
	if err != nil {
		t.Fatalf("OpenFileStore: %v", err)
	}
	defer fs.Close()
	for i := 0; i < 5; i++ {
		if err := fs.SaveCheckpoint(7, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("SaveCheckpoint: %v", err)
		}
	}
	blob, ok, _ := fs.LoadCheckpoint(7)
	if !ok || !bytes.Equal(blob, []byte("v4")) {
		t.Fatalf("checkpoint = %q ok=%v, want v4", blob, ok)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Fatalf("leftover temp file %s after save", e.Name())
		}
	}
}

func TestFlakyStoreDropSchedule(t *testing.T) {
	inner := NewMemStore()
	fl := &FlakyStore{CheckpointStore: inner, DropEvery: 3}
	for i := 0; i < 9; i++ {
		if err := fl.AppendWAL([]byte{byte(i)}); err != nil {
			t.Fatalf("AppendWAL: %v", err)
		}
	}
	if got := fl.Dropped(); got != 3 {
		t.Fatalf("Dropped = %d, want 3 (every 3rd of 9)", got)
	}
	if got := inner.WALRecords(); got != 6 {
		t.Fatalf("inner records = %d, want 6", got)
	}
	// The survivors are exactly the non-multiples of 3 (1-based).
	var got []byte
	inner.ReplayWAL(func(rec []byte) error { got = append(got, rec[0]); return nil })
	want := []byte{0, 1, 3, 4, 6, 7}
	if !bytes.Equal(got, want) {
		t.Fatalf("surviving records = %v, want %v", got, want)
	}
	// DropEvery <= 1 disables dropping entirely.
	benign := &FlakyStore{CheckpointStore: NewMemStore(), DropEvery: 1}
	for i := 0; i < 5; i++ {
		benign.AppendWAL([]byte{byte(i)})
	}
	if benign.Dropped() != 0 {
		t.Fatalf("DropEvery=1 dropped %d", benign.Dropped())
	}
}

// TestStoresRefuseEmptyRecord: an empty record frames to eight zero
// bytes, so both stores refuse it at append time instead of writing a frame
// the scan must treat as damage.
func TestStoresRefuseEmptyRecord(t *testing.T) {
	for name, st := range stores(t) {
		if err := st.AppendWAL(nil); err == nil {
			t.Errorf("%s store accepted an empty record", name)
		}
		if err := st.AppendWAL([]byte("x")); err != nil {
			t.Errorf("%s store: %v", name, err)
		}
		n := 0
		st.ReplayWAL(func([]byte) error { n++; return nil })
		if n != 1 {
			t.Errorf("%s store replays %d records, want 1", name, n)
		}
	}
}

// failingReaderAt serves data up to failAt and fails every read that
// reaches past it with a non-EOF error — a disk returning EIO mid-log.
type failingReaderAt struct {
	data   []byte
	failAt int64
}

var errDisk = errors.New("injected disk read error")

func (r failingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off+int64(len(p)) > r.failAt {
		return 0, errDisk
	}
	return copy(p, r.data[off:]), nil
}

// TestScanWALReadErrorIsNotATornTail: a read that fails for a reason other
// than running out of file must surface as an error. Reported as a clean end
// at the failing offset, truncateTornTail would cut acknowledged records off
// the log.
func TestScanWALReadErrorIsNotATornTail(t *testing.T) {
	raw := walBytes(t, []byte("rec-1"), []byte("rec-2"))
	if len(raw) != 26 {
		t.Fatalf("two 5-byte records frame to %d bytes, want 26", len(raw))
	}
	var seen int
	end, err := scanWAL(failingReaderAt{data: raw, failAt: 13}, int64(len(raw)), func([]byte) error { seen++; return nil })
	if !errors.Is(err, errDisk) {
		t.Fatalf("scanWAL = end %d, err %v; want the disk error", end, err)
	}
	if seen != 1 {
		t.Fatalf("visited %d records before the failing read, want 1", seen)
	}
}

// walBytes returns the raw log a FileStore writes for the given records.
func walBytes(t testing.TB, recs ...[]byte) []byte {
	t.Helper()
	dir := t.TempDir()
	fs, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := fs.AppendWAL(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// countingReaderAt records the largest buffer scanWAL asked it to fill —
// scanWAL allocates a buffer only to read into it, so that is its largest
// allocation.
type countingReaderAt struct {
	r       *bytes.Reader
	maxRead int
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.maxRead = max(c.maxRead, len(p))
	return c.r.ReadAt(p, off)
}

// FuzzScanWAL: arbitrary bytes scan to a prefix of intact records plus the
// offset where it ends — never a panic, an empty record, a buffer larger
// than the input, or an offset the records do not add up to; and the prefix
// is stable: scanning just those bytes again yields the same records.
func FuzzScanWAL(f *testing.F) {
	real := walBytes(f, []byte("intact-1"), []byte{0}, bytes.Repeat([]byte("wal"), 100))
	f.Add(real)
	f.Add(real[:len(real)-7])                             // torn payload
	f.Add(append(bytes.Clone(real), make([]byte, 40)...)) // zero-filled tail
	huge := bytes.Clone(real)
	binary.LittleEndian.PutUint32(huge[0:4], maxWALRecord-1) // corrupt length word
	f.Add(huge)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		scan := func(b []byte) (recs [][]byte, end int64, maxRead int) {
			r := &countingReaderAt{r: bytes.NewReader(b)}
			end, err := scanWAL(r, int64(len(b)), func(rec []byte) error {
				recs = append(recs, rec)
				return nil
			})
			if err != nil {
				t.Fatalf("scanWAL over an in-memory reader failed: %v", err)
			}
			return recs, end, r.maxRead
		}
		recs, end, maxRead := scan(data)
		if maxRead > len(data) {
			t.Fatalf("scanWAL read into a %d-byte buffer over a %d-byte log", maxRead, len(data))
		}
		sum := int64(0)
		for i, rec := range recs {
			if len(rec) == 0 {
				t.Fatalf("record %d is empty", i)
			}
			sum += 8 + int64(len(rec))
		}
		if end != sum || end > int64(len(data)) {
			t.Fatalf("end offset %d over %d bytes, records add up to %d", end, len(data), sum)
		}
		again, end2, _ := scan(data[:end])
		if end2 != end || !reflect.DeepEqual(again, recs) {
			t.Fatalf("intact prefix is not stable: %d records to %d, rescanned %d records to %d", len(recs), end, len(again), end2)
		}
	})
}
