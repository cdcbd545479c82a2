package trace

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"testing"
)

// gunzipResult is what one gzip reader made of a stream: the open
// error, the bytes delivered before the first Read error, that error,
// and Close's.
type gunzipResult struct {
	open, read, close error
	out               []byte
}

// readSized reads r to its first error with read sizes drawn from
// seed, or in 512 KiB reads, as the pipeline's reader makes them, for
// seed 0.
func readSized(r io.Reader, seed uint64) ([]byte, error) {
	var out []byte
	buf := make([]byte, 512<<10)
	for {
		n := len(buf)
		if seed != 0 {
			seed = seed*6364136223846793005 + 1442695040888963407
			n = 1 + int(seed>>40)%(1<<(seed>>60))
		}
		m, err := r.Read(buf[:n])
		out = append(out, buf[:m]...)
		if err != nil {
			return out, err
		}
	}
}

// gunzipStdlib reads stream through compress/gzip, the oracle.
func gunzipStdlib(stream []byte, seed uint64) (res gunzipResult) {
	zr, err := gzip.NewReader(bytes.NewReader(stream))
	if err != nil {
		res.open = err
		return res
	}
	res.out, res.read = readSized(zr, seed)
	res.close = zr.Close()
	return res
}

// gunzipOwn reads stream through a pooled gzipReader.
func gunzipOwn(stream []byte, seed uint64) (res gunzipResult) {
	z := gzipReaders.Get().(*gzipReader)
	defer func() { z.src = nil; gzipReaders.Put(z) }()
	if err := z.reset(bytes.NewReader(stream)); err != nil {
		res.open = err
		return res
	}
	res.out, res.read = readSized(z, seed)
	res.close = z.Close()
	return res
}

// sameErr reports whether got is the oracle's error want: the same
// sentinel, or a flate.CorruptInputError for one, whatever its offset.
func sameErr(got, want error) bool {
	var c flate.CorruptInputError
	if errors.As(want, &c) {
		return errors.As(got, &c)
	}
	if want == nil || got == nil {
		return want == got
	}
	return errors.Is(got, want)
}

// checkGunzip holds the reader to compress/gzip on one stream.
func checkGunzip(t *testing.T, name string, stream []byte, seed uint64) {
	t.Helper()
	want, got := gunzipStdlib(stream, seed), gunzipOwn(stream, seed)
	switch {
	case !sameErr(got.open, want.open):
		t.Fatalf("%s: open error %v, compress/gzip %v", name, got.open, want.open)
	case !bytes.Equal(got.out, want.out):
		at := 0
		for at < min(len(got.out), len(want.out)) && got.out[at] == want.out[at] {
			at++
		}
		t.Fatalf("%s: delivered %d bytes, compress/gzip %d; first difference at %d (errors %v, %v)",
			name, len(got.out), len(want.out), at, got.read, want.read)
	case !sameErr(got.read, want.read):
		t.Fatalf("%s: Read error %v, compress/gzip %v", name, got.read, want.read)
	case !sameErr(got.close, want.close):
		t.Fatalf("%s: Close error %v, compress/gzip %v", name, got.close, want.close)
	}
}

// gzipLevels are the compression levels FuzzGzipReader picks from:
// Huffman-only, stored, and three deflate levels.
var gzipLevels = [...]int{gzip.HuffmanOnly, gzip.NoCompression, gzip.BestSpeed, 5, gzip.BestCompression}

// gzipMembers compresses data at gzipLevels[level%5] as 1 + members%3
// members, each holding its share of data, with Name, Comment and
// Extra set when members&4 is set.
func gzipMembers(data []byte, level, members uint8) []byte {
	var buf bytes.Buffer
	k := 1 + int(members%3)
	for i := range k {
		w, err := gzip.NewWriterLevel(&buf, gzipLevels[level%5])
		if err != nil {
			panic(err)
		}
		if members&4 != 0 {
			w.Name, w.Comment, w.Extra = fmt.Sprintf("part%d.tsv", i), "trace", []byte{'A', 'P', 2, 0, 1, 2}
		}
		if _, err := w.Write(data[i*len(data)/k : (i+1)*len(data)/k]); err != nil {
			panic(err)
		}
		if err := w.Close(); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

// damage cuts cut%(len+1) bytes off the end of stream and, for flip
// above 0, flips bit (flip-1)%8 of byte (flip-1)/8 counted from the
// new end.
func damage(stream []byte, cut, flip uint32) []byte {
	s := bytes.Clone(stream[:len(stream)-int(cut%uint32(len(stream)+1))])
	if flip > 0 && len(s) > 0 {
		f := int(flip - 1)
		s[len(s)-1-(f/8)%len(s)] ^= 1 << (f % 8)
	}
	return s
}

// fhcrcMember builds a gzip member by hand with a name and the header
// CRC (FHCRC) that compress/gzip's writer never sets; bad spoils the
// header CRC.
func fhcrcMember(data []byte, bad bool) []byte {
	h := []byte{0x1f, 0x8b, 8, flagHdrCRC | flagName, 0, 0, 0, 0, 0, 255}
	h = append(h, "fhcrc.tsv\x00"...)
	hc := uint16(crc32.ChecksumIEEE(h))
	if bad {
		hc++
	}
	h = binary.LittleEndian.AppendUint16(h, hc)
	var body bytes.Buffer
	w, _ := flate.NewWriter(&body, flate.BestSpeed)
	w.Write(data)
	w.Close()
	h = append(h, body.Bytes()...)
	h = binary.LittleEndian.AppendUint32(h, crc32.ChecksumIEEE(data))
	return binary.LittleEndian.AppendUint32(h, uint32(len(data)))
}

// accessLogText is a synthetic access log of n rows in the writer's
// TSV layout: the text every large trace file holds.
func accessLogText(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var b []byte
	for i := range n {
		u := rng.Intn(40)
		b = fmt.Appendf(b, "%d\tu%03d\t%d\t%d\t/lustre/atlas/u%03d/proj%d/run%d/f%d.dat\n",
			1451606400+i*17+rng.Intn(17), u, rng.Intn(2), rng.Int63n(1<<34), u, rng.Intn(5), rng.Intn(50), rng.Intn(400))
	}
	return b
}

// gzipSeed is one FuzzGzipReader input, named.
type gzipSeed struct {
	name           string
	data           []byte
	raw            bool
	level, members uint8
	cut, flip      uint32
	sizes          uint64
}

// gzipSeeds are FuzzGzipReader's committed seeds, one named stream
// shape each: raw streams fuzz as they are, the others through
// gzipMembers and damage.
func gzipSeeds() []gzipSeed {
	text := accessLogText(40, 1)
	member := gzipMembers([]byte("u000\t100\tpower\n"), 2, 0)
	empty := gzipMembers(nil, 2, 0)
	return []gzipSeed{
		{name: "huffman-only", data: text, level: 0},
		{name: "stored", data: text, level: 1, sizes: 7},
		{name: "best-speed", data: text, level: 2},
		{name: "level-5", data: text, level: 3, sizes: 99},
		{name: "best-compression", data: text, level: 4},
		{name: "multi-member", data: text, level: 2, members: 2 | 4, sizes: 3},
		{name: "fhcrc", data: fhcrcMember(text, false), raw: true},
		{name: "fhcrc-bad", data: fhcrcMember(text, true), raw: true},
		{name: "cut-in-stored-block", data: text, level: 1, cut: 8 + 1000},
		{name: "cut-in-trailer", data: text, level: 2, cut: 3},
		{name: "bad-crc", data: text, level: 2, flip: 1 + 8*6},
		{name: "garbage-after-member", data: append(bytes.Clone(member), "garbage after the member"...), raw: true},
		{name: "short-garbage-after-member", data: append(bytes.Clone(member), 0x1f, 0x8b), raw: true},
		{name: "empty-member", data: nil, level: 2},
		{name: "empty-member-then-data", data: append(bytes.Clone(empty), member...), raw: true},
		{name: "flipped-deflate", data: text, level: 2, flip: 8 * 100},
		{name: "empty-input", raw: true},
	}
}

// FuzzGzipReader holds the reader to compress/gzip, its oracle: for
// any stream both deliver the same bytes up to the first error, and
// Read and Close return the same errors. A raw input is the stream
// itself; otherwise the input is compressed at a level the fuzzer
// picks, as one to three members, then cut and bit-flipped. Both
// readers read with the same fuzzer-chosen read sizes.
func FuzzGzipReader(f *testing.F) {
	for _, s := range gzipSeeds() {
		f.Add(s.data, s.raw, s.level, s.members, s.cut, s.flip, s.sizes)
	}
	f.Fuzz(func(t *testing.T, data []byte, raw bool, level, members uint8, cut, flip uint32, sizes uint64) {
		stream := data
		if !raw {
			stream = damage(gzipMembers(data, level, members), cut, flip)
		}
		checkGunzip(t, "stream", stream, sizes)
	})
}

// TestGzipReaderMatchesStdlib runs the seeds of FuzzGzipReader, then
// cuts and flips streams of every level at 160 points each, read in
// whole 512 KiB reads and in small ones.
func TestGzipReaderMatchesStdlib(t *testing.T) {
	for _, s := range gzipSeeds() {
		stream := s.data
		if !s.raw {
			stream = damage(gzipMembers(s.data, s.level, s.members), s.cut, s.flip)
		}
		checkGunzip(t, s.name, stream, s.sizes)
	}
	text := accessLogText(300, 2)
	rng := rand.New(rand.NewSource(3))
	for level := range uint8(len(gzipLevels)) {
		for _, members := range []uint8{0, 1 | 4} {
			stream := gzipMembers(text, level, members)
			name := fmt.Sprintf("level %d, members %d", gzipLevels[level], 1+members%3)
			checkGunzip(t, name, stream, 0)
			// Every cut in the last 40 bytes (trailers, final blocks,
			// member boundaries) and 40 more across the stream.
			for cut := range uint32(40) {
				checkGunzip(t, fmt.Sprintf("%s, cut %d", name, cut), damage(stream, cut, 0), uint64(cut))
			}
			for range 40 {
				cut := uint32(rng.Intn(len(stream)))
				checkGunzip(t, fmt.Sprintf("%s, cut %d", name, cut), damage(stream, cut, 0), 0)
			}
			for range 80 {
				flip := 1 + uint32(rng.Intn(8*len(stream)))
				checkGunzip(t, fmt.Sprintf("%s, flip %d", name, flip), damage(stream, 0, flip), uint64(flip))
			}
		}
	}
}

// TestGzipReaderLongStream reads a stream many times the window's size
// through both readers, so the window slides and the input buffer
// refills mid-block, in large and small reads.
func TestGzipReaderLongStream(t *testing.T) {
	text := accessLogText(40000, 4)
	if len(text) < 4*winStop {
		t.Fatalf("text of %d bytes does not span four windows", len(text))
	}
	stream := gzipMembers(text, 2, 1)
	for _, seed := range []uint64{0, 5} {
		checkGunzip(t, fmt.Sprintf("reads %d", seed), stream, seed)
	}
	checkGunzip(t, "stored", gzipMembers(text, 1, 0), 0)
	checkGunzip(t, "cut", damage(stream, uint32(len(stream)/3), 0), 0)
}

// BenchmarkGzipReader times inflating a synthetic access log written
// at the trace writer's level through the package's reader and through
// compress/gzip, both reading a file in 512 KiB reads as the
// pipeline's reader goroutine does.
func BenchmarkGzipReader(b *testing.B) {
	text := accessLogText(100000, 5)
	stream := gzipMembers(text, 2, 0)
	buf := make([]byte, 512<<10)
	drain := func(b *testing.B, r io.Reader) {
		for {
			if _, err := r.Read(buf); err == io.EOF {
				return
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("trace", func(b *testing.B) {
		b.SetBytes(int64(len(text)))
		for range b.N {
			z := gzipReaders.Get().(*gzipReader)
			if err := z.reset(bytes.NewReader(stream)); err != nil {
				b.Fatal(err)
			}
			drain(b, z)
			z.src = nil
			gzipReaders.Put(z)
		}
	})
	b.Run("compress-gzip", func(b *testing.B) {
		b.SetBytes(int64(len(text)))
		zr := new(gzip.Reader)
		for range b.N {
			if err := zr.Reset(bytes.NewReader(stream)); err != nil {
				b.Fatal(err)
			}
			drain(b, zr)
		}
	})
}
