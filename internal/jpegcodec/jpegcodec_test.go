package jpegcodec

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"iothub/internal/sensor"
)

func gradientImage(t *testing.T, w, h int) *Image {
	t.Helper()
	img, err := NewImage(w, h)
	if err != nil {
		t.Fatalf("NewImage: %v", err)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			img.Pix[y*w+x] = byte((x*3 + y*5) % 256)
		}
	}
	return img
}

func TestNewImageValidation(t *testing.T) {
	if _, err := NewImage(0, 8); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := NewImage(8, -1); err == nil {
		t.Error("negative height accepted")
	}
}

func TestFDCTIDCTRoundTrip(t *testing.T) {
	var blk block
	for i := range blk {
		blk[i] = float64((i*7)%255) - 128
	}
	rec := idct(fdct(&blk))
	for i := range blk {
		if math.Abs(rec[i]-blk[i]) > 1e-6 {
			t.Fatalf("coeff %d: %v vs %v", i, rec[i], blk[i])
		}
	}
}

func TestFDCTDCIsBlockMean(t *testing.T) {
	var blk block
	for i := range blk {
		blk[i] = 40
	}
	coeffs := fdct(&blk)
	// DC of a constant block is 8 × value; all ACs are zero.
	if math.Abs(coeffs[0]-320) > 1e-9 {
		t.Errorf("DC = %v, want 320", coeffs[0])
	}
	for i := 1; i < len(coeffs); i++ {
		if math.Abs(coeffs[i]) > 1e-9 {
			t.Errorf("AC[%d] = %v, want 0", i, coeffs[i])
		}
	}
}

func TestMagnitudeExtendInverse(t *testing.T) {
	for v := -2048; v <= 2048; v++ {
		size, bits := magnitude(v)
		if got := extend(bits, size); got != v {
			t.Fatalf("extend(magnitude(%d)) = %d", v, got)
		}
	}
}

func TestBitWriterStuffing(t *testing.T) {
	w := &bitWriter{}
	w.write(0xFF, 8)
	w.flush()
	if !bytes.Equal(w.out, []byte{0xFF, 0x00}) {
		t.Errorf("out = %x, want ff00", w.out)
	}
	r := &bitReader{in: w.out}
	v, err := r.readBits(8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xFF {
		t.Errorf("read back %#x, want 0xFF", v)
	}
}

func TestEncodeDecodeHighQuality(t *testing.T) {
	img := gradientImage(t, 64, 48)
	data, err := Encode(img, 90)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Width != 64 || got.Height != 48 {
		t.Fatalf("decoded size %dx%d", got.Width, got.Height)
	}
	psnr, err := PSNR(img, got)
	if err != nil {
		t.Fatal(err)
	}
	if psnr < 35 {
		t.Errorf("PSNR = %.1f dB, want >= 35 at quality 90", psnr)
	}
}

func TestEncodeDecodeNonBlockAlignedSize(t *testing.T) {
	img := gradientImage(t, 37, 29) // forces edge replication
	data, err := Encode(img, 80)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	psnr, err := PSNR(img, got)
	if err != nil {
		t.Fatal(err)
	}
	if psnr < 30 {
		t.Errorf("PSNR = %.1f dB at odd size", psnr)
	}
}

func TestQualityOrdering(t *testing.T) {
	img := gradientImage(t, 64, 64)
	low, err := Encode(img, 10)
	if err != nil {
		t.Fatal(err)
	}
	high, err := Encode(img, 95)
	if err != nil {
		t.Fatal(err)
	}
	if len(low) >= len(high) {
		t.Errorf("quality 10 stream (%d B) not smaller than quality 95 (%d B)", len(low), len(high))
	}
	decLow, err := Decode(low)
	if err != nil {
		t.Fatal(err)
	}
	decHigh, err := Decode(high)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := PSNR(img, decLow)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := PSNR(img, decHigh)
	if err != nil {
		t.Fatal(err)
	}
	if ph <= pl {
		t.Errorf("high-quality PSNR %.1f not above low-quality %.1f", ph, pl)
	}
}

func TestQualityClamping(t *testing.T) {
	img := gradientImage(t, 16, 16)
	if _, err := Encode(img, -5); err != nil {
		t.Errorf("quality < 1 not clamped: %v", err)
	}
	if _, err := Encode(img, 500); err != nil {
		t.Errorf("quality > 100 not clamped: %v", err)
	}
}

func TestEncodeValidation(t *testing.T) {
	if _, err := Encode(nil, 50); err == nil {
		t.Error("nil image accepted")
	}
	short := &Image{Width: 8, Height: 8, Pix: make([]byte, 10)}
	if _, err := Encode(short, 50); err == nil {
		t.Error("short pixel buffer accepted")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{0, 1}); !errors.Is(err, ErrNotJPEG) {
		t.Errorf("garbage: %v, want ErrNotJPEG", err)
	}
	if _, err := Decode([]byte{0xFF, 0xD8, 0xFF, 0xD9}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("empty jpeg: %v, want ErrCorrupt", err)
	}
	img := gradientImage(t, 16, 16)
	data, err := Encode(img, 75)
	if err != nil {
		t.Fatal(err)
	}
	// Truncation anywhere should error, never panic.
	for cut := 2; cut < len(data)-2; cut += 7 {
		if _, err := Decode(data[:cut]); err == nil {
			t.Errorf("truncated at %d accepted", cut)
		}
	}
}

func TestDecodeDetectsMissingEOI(t *testing.T) {
	img := gradientImage(t, 16, 16)
	data, err := Encode(img, 75)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] = 0x00
	if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
		t.Errorf("missing EOI: %v, want ErrCorrupt", err)
	}
}

func TestFromRGBLuma(t *testing.T) {
	rgb := []byte{255, 255, 255, 0, 0, 0, 255, 0, 0}
	img, err := FromRGB(rgb, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if img.Pix[0] != 254 && img.Pix[0] != 255 {
		t.Errorf("white luma = %d", img.Pix[0])
	}
	if img.Pix[1] != 0 {
		t.Errorf("black luma = %d", img.Pix[1])
	}
	if img.Pix[2] < 70 || img.Pix[2] > 80 {
		t.Errorf("red luma = %d, want ~76", img.Pix[2])
	}
	if _, err := FromRGB(rgb, 4, 1); err == nil {
		t.Error("short rgb buffer accepted")
	}
}

func TestFromRGBWithSensorFrame(t *testing.T) {
	frame := sensor.NewFrame(3, 96, 84)
	img, err := FromRGB(frame.AppendSample(nil, 0), 96, 84)
	if err != nil {
		t.Fatal(err)
	}
	data, err := Encode(img, 85)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	psnr, err := PSNR(img, dec)
	if err != nil {
		t.Fatal(err)
	}
	if psnr < 28 {
		t.Errorf("camera-frame PSNR = %.1f dB", psnr)
	}
}

func TestPSNRIdentical(t *testing.T) {
	img := gradientImage(t, 8, 8)
	p, err := PSNR(img, img)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(p, 1) {
		t.Errorf("identical PSNR = %v, want +Inf", p)
	}
	other := gradientImage(t, 8, 9)
	if _, err := PSNR(img, other); err == nil {
		t.Error("size mismatch accepted")
	}
}

// Property: Decode never panics on mutated streams.
func TestPropertyDecodeRobustToMutation(t *testing.T) {
	img := gradientImage(t, 24, 24)
	data, err := Encode(img, 60)
	if err != nil {
		t.Fatal(err)
	}
	f := func(idx uint16, val byte) bool {
		mut := append([]byte(nil), data...)
		mut[int(idx)%len(mut)] = val
		_, _ = Decode(mut) //nolint:errcheck // only exercising for panics
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: huffman decode(encode(sym)) is identity for every table symbol.
func TestPropertyHuffmanTables(t *testing.T) {
	for _, tbl := range []*huffTable{dcTable, acTable} {
		for _, sym := range tbl.values {
			w := &bitWriter{}
			c := tbl.encode[sym]
			w.write(c.code, c.bits)
			w.flush()
			r := &bitReader{in: w.out}
			got, err := r.decodeSymbol(tbl)
			if err != nil {
				t.Fatalf("decodeSymbol(%#x): %v", sym, err)
			}
			if got != sym {
				t.Fatalf("round trip %#x -> %#x", sym, got)
			}
		}
	}
}

func TestRestartMarkersRoundTrip(t *testing.T) {
	img := gradientImage(t, 64, 64) // 64 blocks
	for _, interval := range []int{1, 4, 7, 64, 100} {
		data, err := EncodeRestart(img, 85, interval)
		if err != nil {
			t.Fatalf("interval %d: %v", interval, err)
		}
		dec, err := Decode(data)
		if err != nil {
			t.Fatalf("interval %d: decode: %v", interval, err)
		}
		psnr, err := PSNR(img, dec)
		if err != nil {
			t.Fatal(err)
		}
		if psnr < 30 {
			t.Errorf("interval %d: PSNR %.1f", interval, psnr)
		}
	}
}

func TestRestartStreamsMatchPlainPixels(t *testing.T) {
	img := gradientImage(t, 48, 40)
	plain, err := Encode(img, 80)
	if err != nil {
		t.Fatal(err)
	}
	restarted, err := EncodeRestart(img, 80, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(restarted) <= len(plain) {
		t.Errorf("restart stream %d B not larger than plain %d B", len(restarted), len(plain))
	}
	a, err := Decode(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decode(restarted)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Pix, b.Pix) {
		t.Error("restart markers changed decoded pixels")
	}
}

func TestRestartIntervalValidation(t *testing.T) {
	img := gradientImage(t, 16, 16)
	if _, err := EncodeRestart(img, 80, -1); err == nil {
		t.Error("negative interval accepted")
	}
	if _, err := EncodeRestart(img, 80, 1<<16); err == nil {
		t.Error("oversized interval accepted")
	}
}

func TestRestartDecoderDetectsMissingMarker(t *testing.T) {
	img := gradientImage(t, 64, 64)
	data, err := EncodeRestart(img, 85, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Find and corrupt the first RST marker in the entropy stream.
	corrupted := false
	mut := append([]byte(nil), data...)
	for i := len(mut) - 3; i > 2; i-- {
		if mut[i] == 0xFF && mut[i+1] >= 0xD0 && mut[i+1] <= 0xD7 {
			mut[i+1] = 0x00 // stuffing instead of a marker
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("no RST marker found in stream")
	}
	if _, err := Decode(mut); err == nil {
		t.Error("missing restart marker accepted")
	}
}
