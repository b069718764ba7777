package extsort

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"mergepath/internal/byteview"
	"mergepath/internal/fault"
)

func TestFileDeviceRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dev.bin")
	d, err := CreateFileDevice(path, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Capacity() != 64 || d.BlockRecords() != 8 || d.Path() != path {
		t.Fatal("geometry wrong")
	}
	if err := d.Write(0, []int64{1, -2, 3}); err != nil {
		t.Fatal(err)
	}
	got := make([]int64, 3)
	if err := d.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != -2 || got[2] != 3 {
		t.Fatalf("roundtrip: %v", got)
	}
	r, w := d.Stats()
	if r != 1 || w != 1 {
		t.Fatalf("io counts: r=%d w=%d", r, w)
	}
	// Straddling a block boundary charges both blocks, like BlockDevice.
	d.ResetStats()
	if err := d.Write(6, []int64{9, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	if _, w := d.Stats(); w != 2 {
		t.Fatalf("straddling write charged %d blocks", w)
	}
	// Zero-length I/O is free and legal.
	if err := d.Read(0, nil); err != nil {
		t.Fatal(err)
	}
	if r, _ := d.Stats(); r != 0 {
		t.Fatalf("empty read charged %d", r)
	}
}

func TestFileDeviceErrors(t *testing.T) {
	dir := t.TempDir()
	d, err := CreateFileDevice(filepath.Join(dir, "dev.bin"), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Read(2, make([]int64, 3)); err == nil {
		t.Fatal("oob read should error")
	}
	if err := d.Write(-1, make([]int64, 1)); err == nil {
		t.Fatal("oob write should error")
	}
	if _, err := CreateFileDevice(filepath.Join(dir, "dev2.bin"), -1, 2); err == nil {
		t.Fatal("negative capacity should error")
	}
	// A file that is not a whole number of records cannot be opened.
	ragged := filepath.Join(dir, "ragged.bin")
	if err := os.WriteFile(ragged, make([]byte, 12), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileDevice(ragged, 0); err == nil {
		t.Fatal("ragged file should error")
	}
	if _, err := OpenFileDevice(filepath.Join(dir, "missing.bin"), 0); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestFileDeviceOpenExisting(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dev.bin")
	d, err := CreateFileDevice(path, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Write(0, []int64{5, 6, 7, 8, 9, 10, 11, 12, 13, 14}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenFileDevice(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Capacity() != 10 {
		t.Fatalf("capacity from size: %d", d2.Capacity())
	}
	if d2.BlockRecords() != DefaultFileBlockRecords {
		t.Fatalf("default block size: %d", d2.BlockRecords())
	}
	got := make([]int64, 10)
	if err := d2.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 5 || got[9] != 14 {
		t.Fatalf("persisted contents: %v", got)
	}
	if err := d2.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("Remove should delete the backing file")
	}
}

// onPath runs fn with the record path forced: raw-byte native I/O or the
// portable conversion through the device's scratch buffer.
func onPath(isNative bool, fn func()) {
	saved := native
	native = isNative
	defer func() { native = saved }()
	fn()
}

// paths lists the record paths this host can run: the portable one
// always, the native one only where records are the host's memory.
func paths() []bool {
	if byteview.Native {
		return []bool{true, false}
	}
	return []bool{false}
}

// TestFileDevicePathsAgree pins both record paths to the same file
// bytes: little-endian int64s, whichever path wrote or reads them.
func TestFileDevicePathsAgree(t *testing.T) {
	src := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64, 0x0102030405060708, -0x0102030405060708}
	want := make([]byte, 0, 8*len(src))
	for _, v := range src {
		want = binary.LittleEndian.AppendUint64(want, uint64(v))
	}
	for _, writer := range paths() {
		for _, reader := range paths() {
			path := filepath.Join(t.TempDir(), "dev.bin")
			d, err := CreateFileDevice(path, len(src), 2)
			if err != nil {
				t.Fatal(err)
			}
			onPath(writer, func() { err = d.Write(0, src) })
			if err != nil {
				t.Fatal(err)
			}
			if raw, _ := os.ReadFile(path); !bytes.Equal(raw, want) {
				t.Fatalf("native=%v wrote % x, want % x", writer, raw, want)
			}
			got := make([]int64, len(src))
			onPath(reader, func() { err = d.Read(0, got) })
			if err != nil || !slices.Equal(got, src) {
				t.Fatalf("write native=%v, read native=%v: %v, %v", writer, reader, got, err)
			}
			d.Close()
		}
	}
}

// TestFileDeviceFaultsAgree pins the fault semantics on both paths: a
// flip toggles bit 0 of the first byte read, and a short write persists
// exactly the first half of the span's bytes.
func TestFileDeviceFaultsAgree(t *testing.T) {
	src := []int64{0x1111, 0x2222, 0x3333}
	for _, isNative := range paths() {
		onPath(isNative, func() {
			path := filepath.Join(t.TempDir(), "dev.bin")
			d, err := CreateFileDevice(path, len(src), 2)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			inj, err := fault.Parse(FaultOpShortWrite+":error=1", 1)
			if err != nil {
				t.Fatal(err)
			}
			d.SetFault(inj)
			if err := d.Write(0, src); !errors.Is(err, io.ErrShortWrite) {
				t.Fatalf("native=%v: short write err = %v", isNative, err)
			}
			raw, _ := os.ReadFile(path)
			wantRaw := make([]byte, 8*len(src))
			for i, v := range src {
				binary.LittleEndian.PutUint64(wantRaw[8*i:], uint64(v))
			}
			clear(wantRaw[len(wantRaw)/2:])
			if !bytes.Equal(raw, wantRaw) {
				t.Fatalf("native=%v: torn write left % x, want % x", isNative, raw, wantRaw)
			}
			inj.SetEnabled(false)
			if err := d.Write(0, src); err != nil {
				t.Fatal(err)
			}
			flip, err := fault.Parse(FaultOpFlip+":error=1", 1)
			if err != nil {
				t.Fatal(err)
			}
			d.SetFault(flip)
			got := make([]int64, len(src))
			if err := d.Read(0, got); err != nil {
				t.Fatal(err)
			}
			want := slices.Clone(src)
			want[0] ^= 1
			if !slices.Equal(got, want) {
				t.Fatalf("native=%v: flipped read %x, want %x", isNative, got, want)
			}
		})
	}
}

// TestFileDeviceNoAllocs pins the steady state of record I/O: after a
// warm-up call, reading or writing a 64K-record span allocates nothing,
// and on the native path the device holds no scratch at all.
func TestFileDeviceNoAllocs(t *testing.T) {
	const span = 64 << 10
	for _, isNative := range paths() {
		onPath(isNative, func() {
			d, err := CreateFileDevice(filepath.Join(t.TempDir(), "dev.bin"), span, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			buf := make([]int64, span)
			for i := range buf {
				buf[i] = int64(i)
			}
			write := func() {
				if err := d.Write(0, buf); err != nil {
					t.Fatal(err)
				}
			}
			read := func() {
				if err := d.Read(0, buf); err != nil {
					t.Fatal(err)
				}
			}
			write()
			read()
			if a := testing.AllocsPerRun(5, write); a != 0 {
				t.Errorf("native=%v: Write allocates %.0f times", isNative, a)
			}
			if a := testing.AllocsPerRun(5, read); a != 0 {
				t.Errorf("native=%v: Read allocates %.0f times", isNative, a)
			}
			if isNative && cap(d.buf) != 0 {
				t.Errorf("native device keeps %d bytes of scratch", cap(d.buf))
			}
		})
	}
}
