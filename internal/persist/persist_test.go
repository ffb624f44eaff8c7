package persist

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"ktg/internal/faultio"
)

// buildContainer writes a two-section container with the given header
// to w.
func buildContainer(w io.Writer, hdr Header, a, b []byte) error {
	pw, err := NewWriter(w, hdr)
	if err != nil {
		return err
	}
	if err := pw.Section("alpha", func(w io.Writer) error {
		_, err := w.Write(a)
		return err
	}); err != nil {
		return err
	}
	if err := pw.Section("beta", func(w io.Writer) error {
		// Dribble the payload to exercise chunk accumulation.
		for len(b) > 0 {
			n := min(len(b), 7)
			if _, err := w.Write(b[:n]); err != nil {
				return err
			}
			b = b[n:]
		}
		return nil
	}); err != nil {
		return err
	}
	return pw.Close()
}

// readContainer reads both sections back and returns their payloads.
func readContainer(data []byte) (Header, []byte, []byte, error) {
	pr, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return Header{}, nil, nil, err
	}
	sec, err := pr.Section("alpha")
	if err != nil {
		return Header{}, nil, nil, err
	}
	a, err := io.ReadAll(sec)
	if err != nil {
		return Header{}, nil, nil, err
	}
	sec, err = pr.Section("beta")
	if err != nil {
		return Header{}, nil, nil, err
	}
	b, err := io.ReadAll(sec)
	if err != nil {
		return Header{}, nil, nil, err
	}
	return pr.Header(), a, b, pr.Close()
}

func testHeader() Header {
	return Header{
		Kind:  "test",
		Param: 7,
		Graph: Fingerprint{Vertices: 12, AdjEntries: 34, CRC: 0xDEADBEEFCAFE},
	}
}

func testPayloads() ([]byte, []byte) {
	a := []byte("the quick brown fox")
	b := make([]byte, 300000) // spans two write chunks
	for i := range b {
		b[i] = byte(i * 31)
	}
	return a, b
}

func TestContainerRoundTrip(t *testing.T) {
	a, b := testPayloads()
	var buf bytes.Buffer
	if err := buildContainer(&buf, testHeader(), a, b); err != nil {
		t.Fatalf("write: %v", err)
	}
	hdr, ra, rb, err := readContainer(buf.Bytes())
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	want := testHeader()
	want.Version = FormatVersion
	if hdr != want {
		t.Errorf("header = %+v, want %+v", hdr, want)
	}
	if !bytes.Equal(ra, a) || !bytes.Equal(rb, b) {
		t.Error("payload mismatch after round trip")
	}
}

func TestSkippedSectionStillVerified(t *testing.T) {
	a, b := testPayloads()
	var buf bytes.Buffer
	if err := buildContainer(&buf, testHeader(), a, b); err != nil {
		t.Fatal(err)
	}
	// Reading beta without consuming alpha must auto-drain alpha.
	pr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.Section("alpha"); err != nil {
		t.Fatal(err)
	}
	sec, err := pr.Section("beta")
	if err != nil {
		t.Fatalf("skipping to beta: %v", err)
	}
	rb, err := io.ReadAll(sec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rb, b) {
		t.Error("beta payload mismatch after skipping alpha")
	}
	if err := pr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestWrongSectionNameRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := buildContainer(&buf, testHeader(), []byte("x"), []byte("y")); err != nil {
		t.Fatal(err)
	}
	pr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.Section("beta"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("out-of-order section read: err = %v, want ErrCorrupt", err)
	}
}

func TestVersionSkew(t *testing.T) {
	var buf bytes.Buffer
	hdr := testHeader()
	hdr.Version = FormatVersion + 1
	if err := buildContainer(&buf, hdr, []byte("x"), []byte("y")); err != nil {
		t.Fatal(err)
	}
	_, err := NewReader(bytes.NewReader(buf.Bytes()))
	if !errors.Is(err, ErrVersionSkew) {
		t.Errorf("future version: err = %v, want ErrVersionSkew", err)
	}
}

// TestFlipEveryByte proves the acceptance property at the container
// level: flipping any single byte anywhere in the stream is detected.
func TestFlipEveryByte(t *testing.T) {
	a := []byte("the quick brown fox jumps over the lazy dog")
	b := []byte("pack my box with five dozen liquor jugs....")
	var buf bytes.Buffer
	if err := buildContainer(&buf, testHeader(), a, b); err != nil {
		t.Fatal(err)
	}
	golden := buf.Bytes()
	for off := range golden {
		mutated := append([]byte(nil), golden...)
		mutated[off] ^= 0xFF
		hdr, ra, rb, err := readContainer(mutated)
		if err == nil {
			t.Fatalf("flip at offset %d went undetected (hdr=%+v a=%q b=%q)", off, hdr, ra, rb)
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersionSkew) {
			t.Errorf("flip at offset %d: err = %v, want ErrCorrupt or ErrVersionSkew", off, err)
		}
	}
}

// TestTruncateEveryPrefix proves torn tails are always detected: no
// strict prefix of a valid container reads back cleanly.
func TestTruncateEveryPrefix(t *testing.T) {
	var buf bytes.Buffer
	if err := buildContainer(&buf, testHeader(), []byte("alpha payload"), []byte("beta payload")); err != nil {
		t.Fatal(err)
	}
	golden := buf.Bytes()
	for n := 0; n < len(golden); n++ {
		if _, _, _, err := readContainer(golden[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes went undetected", n, len(golden))
		}
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := buildContainer(&buf, testHeader(), []byte("a"), []byte("b")); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte(0)
	if _, _, _, err := readContainer(buf.Bytes()); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing byte: err = %v, want ErrCorrupt", err)
	}
}

func TestReadFaultsSurface(t *testing.T) {
	a, b := testPayloads()
	var buf bytes.Buffer
	if err := buildContainer(&buf, testHeader(), a, b); err != nil {
		t.Fatal(err)
	}
	golden := buf.Bytes()
	// A hard read error at a selection of offsets must abort the load.
	for _, off := range []int64{0, 5, 20, 100, int64(len(golden) / 2), int64(len(golden) - 1)} {
		fr := faultio.NewReader(bytes.NewReader(golden)).FailAt(off, nil)
		pr, err := NewReader(fr)
		if err == nil {
			for _, name := range []string{"alpha", "beta"} {
				var sec io.Reader
				if sec, err = pr.Section(name); err != nil {
					break
				}
				if _, err = io.Copy(io.Discard, sec); err != nil {
					break
				}
			}
			if err == nil {
				err = pr.Close()
			}
		}
		if err == nil {
			t.Errorf("read fault at offset %d went undetected", off)
		}
	}
}

func TestFingerprintOf(t *testing.T) {
	g1 := stubGraph{{1, 2}, {0}, {0}}
	g2 := stubGraph{{1, 2}, {0}, {0}}
	g3 := stubGraph{{2}, {}, {0}}
	f1, f2, f3 := FingerprintOf(g1), FingerprintOf(g2), FingerprintOf(g3)
	if f1 != f2 {
		t.Error("equal graphs produced different fingerprints")
	}
	if f1.CRC == f3.CRC {
		t.Error("different graphs produced colliding CRCs")
	}
	if f1.Vertices != 3 || f1.AdjEntries != 4 {
		t.Errorf("fingerprint counts = %+v", f1)
	}
}

type stubGraph [][]uint32

func (s stubGraph) NumVertices() int            { return len(s) }
func (s stubGraph) Neighbors(v uint32) []uint32 { return s[v] }

// TestWriteFileAtomicCrashSafety interrupts the save at every byte
// offset of the container plus both between-phase crash points, and
// asserts the target path is always either absent, the previous
// snapshot, or the complete new one — never a torn file.
func TestWriteFileAtomicCrashSafety(t *testing.T) {
	a, b := []byte("alpha section payload"), []byte("beta section payload")
	writeContainer := func(w io.Writer) error {
		return buildContainer(w, testHeader(), a, b)
	}
	var golden bytes.Buffer
	if err := writeContainer(&golden); err != nil {
		t.Fatal(err)
	}
	size := golden.Len()

	for _, tc := range []struct {
		name string
		old  []byte // pre-existing target content; nil = absent
	}{
		{"fresh", nil},
		{"overwrite", []byte("previous snapshot content")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "index.snap")
			reset := func() {
				os.Remove(path)
				if tc.old != nil {
					if err := os.WriteFile(path, tc.old, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			checkIntact := func(when string) {
				t.Helper()
				data, err := os.ReadFile(path)
				switch {
				case errors.Is(err, fs.ErrNotExist):
					if tc.old != nil {
						t.Fatalf("%s: previous snapshot vanished", when)
					}
				case err != nil:
					t.Fatalf("%s: %v", when, err)
				case !bytes.Equal(data, tc.old):
					t.Fatalf("%s: target holds %d unexpected bytes", when, len(data))
				}
			}

			for off := 0; off < size; off++ {
				reset()
				err := writeFileAtomic(path, writeContainer, atomicHooks{
					wrap: func(w io.Writer) io.Writer {
						return faultio.NewWriter(w).FailAt(int64(off), nil)
					},
				})
				if err == nil {
					t.Fatalf("write fault at offset %d not reported", off)
				}
				checkIntact(fmt.Sprintf("fault at offset %d", off))
			}

			crash := errors.New("simulated crash")
			reset()
			if err := writeFileAtomic(path, writeContainer, atomicHooks{
				beforeSync: func() error { return crash },
			}); !errors.Is(err, crash) {
				t.Fatalf("beforeSync crash: err = %v", err)
			}
			checkIntact("crash before fsync")

			reset()
			if err := writeFileAtomic(path, writeContainer, atomicHooks{
				beforeRename: func() error { return crash },
			}); !errors.Is(err, crash) {
				t.Fatalf("beforeRename crash: err = %v", err)
			}
			checkIntact("crash before rename")

			// No interrupted attempt may leave temp litter behind.
			if stray, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(stray) > 0 {
				t.Fatalf("temp files left behind: %v", stray)
			}

			// And a clean save must produce the complete container.
			reset()
			if err := WriteFileAtomic(path, writeContainer); err != nil {
				t.Fatalf("clean save: %v", err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, golden.Bytes()) {
				t.Fatal("clean save produced different bytes")
			}
			if _, _, _, err := readContainer(data); err != nil {
				t.Fatalf("clean save not readable: %v", err)
			}
		})
	}
}
