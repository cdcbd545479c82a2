package trace

// The gzip reader behind openReader, the one path every .gz read
// takes: gzip member framing (RFC 1952) around a table-driven DEFLATE
// decoder (RFC 1951). compress/gzip's reader is its oracle. For any
// input, valid or not, it delivers the same bytes up to the first
// error, and Read and Close return the errors compress/gzip's Read and
// Close return, as the stdlib's own values: io.EOF,
// io.ErrUnexpectedEOF, gzip.ErrHeader, gzip.ErrChecksum and
// flate.CorruptInputError (whose offset alone may differ).
// FuzzGzipReader and TestGzipReaderMatchesStdlib hold it to that.
//
// Output is decoded into a window of 32 KiB of history plus a decode
// area, and Read copies out of it. Input comes through a 256 KiB
// buffer into a 64-bit bit buffer. While at least 8 input bytes and a
// longest match's room remain, a fast loop refills the bit buffer
// with one 8-byte load per symbol and decodes each symbol with one
// table probe (two for a code longer than the table's index). At the
// input's end an exact loop decodes one symbol at a time, reading
// bytes only as compress/flate would, so a cut stream fails where and
// as compress/flate's does.

import (
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math/bits"
	"sync"
)

const (
	winHist = 32 << 10 // deflate's farthest match distance
	// Decoding pauses once the window holds winStop bytes. A 32 KiB
	// decode area keeps a load's allocations at the level of the
	// bufio.Reader and gzip.Reader this reader replaced (which
	// allocated link tables per dynamic block besides), and sliding
	// the history after each one costs no measurable time.
	winStop  = 2 * winHist
	maxMatch = 258
	// The window's tail past winStop holds one more match, which the
	// fast loop copies 8 bytes at a time, overshooting its end by up
	// to 7 bytes.
	winLen = winStop + maxMatch + 8

	inBufLen = 256 << 10
	// inKeep input bytes stay in front of pos across a refill: the bit
	// buffer's whole bytes, which a byte-aligned step hands back.
	inKeep = 8

	// Decode-table index widths, and table lengths with room to spare
	// for the subtables of any code deflate's lengths allow; build
	// checks the bound, so no input indexes past it.
	litBits      = 10
	distBits     = 8
	clenBits     = 7
	litTableLen  = 1<<litBits + 1024
	distTableLen = 1<<distBits + 1024
)

// A decode-table entry packs, from the low bits up: the code length
// (4 bits); the extra-bit count, or a subtable's index width (4 bits);
// the kind (8 bits); and the value (16 bits): a literal byte, a base
// match length or distance, a code-length symbol, or a subtable's
// start. Kind 0 is corrupt input: a symbol deflate does not define,
// or, with code length 0, bits that no code of an incomplete table
// covers.
const (
	eLit  uint32 = 1 << 8 // a literal byte, or a code-length symbol
	eBase uint32 = 2 << 8 // a base value plus extra bits: a match length or a distance
	eEOB  uint32 = 4 << 8
	eSub  uint32 = 8 << 8
	eKind uint32 = 0xff << 8
)

// litEntry, distEntry and clenEntry map a symbol of each alphabet to
// its table entry, code length left out.
func litEntry(sym int) uint32 {
	switch {
	case sym < 256:
		return eLit | uint32(sym)<<16
	case sym == 256:
		return eEOB
	case sym < 265:
		return eBase | uint32(sym-254)<<16
	case sym < 285:
		x := (sym - 261) / 4
		base := (4+(sym-265)%4)<<x + 3
		return eBase | uint32(base)<<16 | uint32(x)<<4
	case sym == 285:
		return eBase | maxMatch<<16
	}
	return 0 // 286 and 287 have fixed codes but no meaning
}

func distEntry(sym int) uint32 {
	switch {
	case sym < 4:
		return eBase | uint32(sym+1)<<16
	case sym < 30:
		x := sym/2 - 1
		return eBase | uint32(1<<(x+1)+1+(sym&1)<<x)<<16 | uint32(x)<<4
	}
	return 0 // 30 and 31 have fixed codes but no meaning
}

func clenEntry(sym int) uint32 { return eLit | uint32(sym)<<16 }

// build fills t, indexed by its low width bits, with the canonical
// Huffman code that lens defines, symbol i decoding to entry(i) with
// its code length. Codes longer than width continue in subtables after
// the first 1<<width entries. build accepts what compress/flate
// accepts: a complete code, a single code of length 1 (its other half
// stays corrupt), or no code at all. It returns the shortest code
// length, 0 for an empty code, and false for lengths that form none of
// these.
func build(t []uint32, width uint, lens []uint8, entry func(int) uint32) (uint, bool) {
	var count [16]int
	minLen, maxLen := uint(0), uint(0)
	for _, n := range lens {
		if n == 0 {
			continue
		}
		if minLen == 0 || uint(n) < minLen {
			minLen = uint(n)
		}
		maxLen = max(maxLen, uint(n))
		count[n]++
	}
	var next [16]int
	code := 0
	for n := minLen; n <= maxLen && n > 0; n++ {
		code <<= 1
		next[n] = code
		code += count[n]
	}
	switch {
	case maxLen == 0 || code == 1 && maxLen == 1:
		clear(t[:1<<width])
	case code != 1<<maxLen:
		return 0, false
	}
	if maxLen > width {
		// Size each subtable for the longest code under its prefix.
		var longest [1 << litBits]uint8
		c := next
		for _, n := range lens {
			if uint(n) > width {
				r := reverse(c[n], n)
				c[n]++
				p := r & (1<<width - 1)
				longest[p] = max(longest[p], n)
			}
		}
		end := 1 << width
		for p, n := range longest[:1<<width] {
			if n == 0 {
				continue
			}
			w := uint(n) - width
			if end+1<<w > len(t) {
				return 0, false
			}
			t[p] = eSub | uint32(end)<<16 | uint32(w)<<4
			end += 1 << w
		}
	}
	for sym, n := range lens {
		if n == 0 {
			continue
		}
		r := reverse(next[n], n)
		next[n]++
		e := entry(sym) | uint32(n)
		if uint(n) <= width {
			for i := r; i < 1<<width; i += 1 << n {
				t[i] = e
			}
			continue
		}
		sub := t[r&(1<<width-1)]
		start, w := int(sub>>16), sub>>4&15
		for i := r >> width; i < 1<<w; i += 1 << (uint(n) - width) {
			t[start+i] = e
		}
	}
	return minLen, true
}

// reverse returns the n-bit code reversed: deflate packs Huffman codes
// from their first bit up.
func reverse(code int, n uint8) int {
	return int(bits.Reverse16(uint16(code)) >> (16 - n))
}

// fixed holds the fixed-Huffman block's tables (RFC 1951 3.2.6).
var fixed = func() (f struct {
	lit             [litTableLen]uint32
	dist            [distTableLen]uint32
	litMin, distMin uint
}) {
	var lens [288]uint8
	for i := range lens {
		switch {
		case i < 144:
			lens[i] = 8
		case i < 256:
			lens[i] = 9
		case i < 280:
			lens[i] = 7
		default:
			lens[i] = 8
		}
	}
	f.litMin, _ = build(f.lit[:], litBits, lens[:], litEntry)
	for i := range 32 {
		lens[i] = 5
	}
	f.distMin, _ = build(f.dist[:], distBits, lens[:32], distEntry)
	return f
}()

// The decoder's place inside a member's deflate stream.
const (
	stBlock   = iota // at a block header
	stStored         // inside a stored block
	stHuffman        // inside a Huffman-coded block
)

// gzipReader is the package's gzip decoder; openReader takes one from
// gzipReaders and resets it onto the file.
type gzipReader struct {
	src    io.Reader
	srcErr error // the source's first error, io.EOF at its end

	// in[pos:end] is unread input; in[0] sits at offset base of the
	// source. The bit buffer holds nb bits taken from in[:pos]; above
	// them it holds zeros, or, inside the fast loop, the next input
	// bits.
	in        []byte
	pos, end  int
	base      int64
	bitBuf    uint64
	nb        uint
	streamOff int64 // the source offset of this member's deflate stream

	// win[rd:wr] is decoded output Read has not delivered yet, and
	// this member's output starts at win[hist] (or before win[0]).
	win          []byte
	rd, wr, hist int

	state    int
	final    bool // the current block is the member's last
	stored   int  // bytes left in the current stored block
	lt       *[litTableLen]uint32
	dt       *[distTableLen]uint32
	litMin   uint // bits compress/flate reads before decoding a literal/length symbol
	distMin  uint
	crc      uint32
	size     uint32
	flateErr error // the member's deflate outcome: io.EOF after its last block
	err      error // Read's error once the window is drained

	lit  [litTableLen]uint32
	dist [distTableLen]uint32
	clen [1 << clenBits]uint32
	lens [286 + 30]uint8
}

// gzipReaders recycles decoder states, whose buffers and tables cost
// about 340 KB to allocate, more than a small checkpoint sidecar holds.
var gzipReaders = sync.Pool{New: func() any {
	return &gzipReader{in: make([]byte, inBufLen), win: make([]byte, winLen)}
}}

// reset makes z read the gzip stream src from its start, reading the
// first member's header as gzip.Reader.Reset does, with its errors.
func (z *gzipReader) reset(src io.Reader) error {
	z.src, z.srcErr = src, nil
	z.pos, z.end, z.base = 0, 0, 0
	z.bitBuf, z.nb = 0, 0
	z.rd, z.wr = 0, 0
	z.flateErr = nil
	z.err = z.header()
	return z.err
}

// Read implements io.Reader.
func (z *gzipReader) Read(p []byte) (int, error) {
	for z.rd == z.wr {
		if z.err != nil {
			return 0, z.err
		}
		z.step()
	}
	n := copy(p, z.win[z.rd:z.wr])
	z.rd += n
	return n, nil
}

// Close returns the error that stopped the current member's deflate
// stream, if any, as gzip.Reader's Close does. It does not close the
// source.
func (z *gzipReader) Close() error {
	if z.flateErr == io.EOF {
		return nil
	}
	return z.flateErr
}

// step decodes into the drained window: it keeps the last 32 KiB as
// history, inflates until the window fills or the member's deflate
// stream stops, and at the stream's end checks the trailer and opens
// the next member.
func (z *gzipReader) step() {
	if z.wr > winHist {
		shift := z.wr - winHist
		copy(z.win[:winHist], z.win[shift:z.wr])
		z.rd, z.wr = winHist, winHist
		z.hist = max(z.hist-shift, 0)
	}
	start := z.wr
	z.flateErr = z.inflate()
	z.crc = crc32.Update(z.crc, crc32.IEEETable, z.win[start:z.wr])
	z.size += uint32(z.wr - start)
	switch z.flateErr {
	case nil:
	case io.EOF:
		z.err = z.nextMember()
	default:
		z.err = z.flateErr
	}
}

// nextMember checks the trailer of the member whose deflate stream
// just ended and reads the next member's header. It returns io.EOF
// when the stream ends there.
func (z *gzipReader) nextMember() error {
	z.align()
	var t [8]byte
	if err := z.readFull(t[:]); err != nil {
		return noEOF(err)
	}
	if binary.LittleEndian.Uint32(t[:4]) != z.crc || binary.LittleEndian.Uint32(t[4:]) != z.size {
		return gzip.ErrChecksum
	}
	return z.header()
}

// Member header flags (RFC 1952 2.3.1).
const (
	flagHdrCRC  = 1 << 1
	flagExtra   = 1 << 2
	flagName    = 1 << 3
	flagComment = 1 << 4
)

// header reads a member header and starts the member's deflate stream.
// Like gzip.Reader, it returns io.EOF when the stream has no more
// bytes, ignores the reserved flags, and refuses a name or comment of
// 512 bytes or more.
func (z *gzipReader) header() error {
	var h [10]byte
	if err := z.readFull(h[:]); err != nil {
		return err
	}
	if h[0] != 0x1f || h[1] != 0x8b || h[2] != 8 {
		return gzip.ErrHeader
	}
	flg := h[3]
	crc := crc32.ChecksumIEEE(h[:])
	if flg&flagExtra != 0 {
		var xlen [2]byte
		if err := z.readFull(xlen[:]); err != nil {
			return noEOF(err)
		}
		crc = crc32.Update(crc, crc32.IEEETable, xlen[:])
		for n := int(binary.LittleEndian.Uint16(xlen[:])); n > 0; {
			if z.pos == z.end && !z.fill() {
				return noEOF(z.srcErr)
			}
			m := min(n, z.end-z.pos)
			crc = crc32.Update(crc, crc32.IEEETable, z.in[z.pos:z.pos+m])
			z.pos += m
			n -= m
		}
	}
	for _, f := range [2]byte{flagName, flagComment} {
		if flg&f == 0 {
			continue
		}
		var s [512]byte
		for i := 0; ; i++ {
			if i == len(s) {
				return gzip.ErrHeader
			}
			if z.pos == z.end && !z.fill() {
				return noEOF(z.srcErr)
			}
			s[i] = z.in[z.pos]
			z.pos++
			if s[i] == 0 {
				crc = crc32.Update(crc, crc32.IEEETable, s[:i+1])
				break
			}
		}
	}
	if flg&flagHdrCRC != 0 {
		var hc [2]byte
		if err := z.readFull(hc[:]); err != nil {
			return noEOF(err)
		}
		if binary.LittleEndian.Uint16(hc[:]) != uint16(crc) {
			return gzip.ErrHeader
		}
	}
	z.streamOff = z.base + int64(z.pos)
	z.state, z.final = stBlock, false
	z.crc, z.size = 0, 0
	z.hist = z.wr
	z.flateErr = nil
	return nil
}

// inflate decodes the member's deflate stream into the window until
// the window fills (nil), the last block ends (io.EOF) or the stream
// fails.
func (z *gzipReader) inflate() error {
	for z.wr < winStop {
		var err error
		switch z.state {
		case stBlock:
			err = z.blockHeader()
		case stStored:
			err = z.storedData()
		default:
			err = z.huffman()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// endBlock leaves a finished block: io.EOF after the member's last.
func (z *gzipReader) endBlock() error {
	if z.final {
		return io.EOF
	}
	z.state = stBlock
	return nil
}

// blockHeader reads a block header and, for a stored block, its
// length, and for a dynamic one, its code tables.
func (z *gzipReader) blockHeader() error {
	if !z.need(3) {
		return z.inputErr()
	}
	z.final = z.bitBuf&1 == 1
	typ := z.bitBuf >> 1 & 3
	z.drop(3)
	switch typ {
	case 0:
		z.align()
		var h [4]byte
		if err := z.readFull(h[:]); err != nil {
			return noEOF(err)
		}
		n := binary.LittleEndian.Uint16(h[:2])
		if binary.LittleEndian.Uint16(h[2:]) != ^n {
			return z.corrupt()
		}
		if n == 0 {
			return z.endBlock()
		}
		z.stored, z.state = int(n), stStored
	case 1:
		z.lt, z.dt = &fixed.lit, &fixed.dist
		z.litMin, z.distMin = fixed.litMin, fixed.distMin
		z.state = stHuffman
	case 2:
		if err := z.dynamicTables(); err != nil {
			return err
		}
		z.state = stHuffman
	default:
		return z.corrupt()
	}
	return nil
}

// clenOrder is the order of the code-length code's lengths in a
// dynamic block header.
var clenOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// dynamicTables reads a dynamic block's code definitions (RFC 1951
// 3.2.7) into the decoder's tables, checking them in compress/flate's
// order.
func (z *gzipReader) dynamicTables() error {
	if !z.need(14) {
		return z.inputErr()
	}
	nlit := int(z.bitBuf&31) + 257
	ndist := int(z.bitBuf>>5&31) + 1
	nclen := int(z.bitBuf>>10&15) + 4
	if nlit > 286 || ndist > 30 {
		return z.corrupt()
	}
	z.drop(14)
	var clens [19]uint8
	for _, sym := range clenOrder[:nclen] {
		if !z.need(3) {
			return z.inputErr()
		}
		clens[sym] = uint8(z.bitBuf & 7)
		z.drop(3)
	}
	clenMin, ok := build(z.clen[:], clenBits, clens[:], clenEntry)
	if !ok {
		return z.corrupt()
	}
	lens := z.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		e, err := z.symbol(z.clen[:], clenBits, clenMin)
		if err != nil {
			return err
		}
		sym := e >> 16
		if sym < 16 {
			lens[i] = uint8(sym)
			i++
			continue
		}
		rep, x, n := 3, uint(2), uint8(0)
		switch sym {
		case 16:
			if i == 0 {
				return z.corrupt()
			}
			n = lens[i-1]
		case 17:
			x = 3
		default:
			rep, x = 11, 7
		}
		if !z.need(x) {
			return z.inputErr()
		}
		rep += int(z.bitBuf & (1<<x - 1))
		z.drop(x)
		if i+rep > len(lens) {
			return z.corrupt()
		}
		for end := i + rep; i < end; i++ {
			lens[i] = n
		}
	}
	litMin, ok := build(z.lit[:], litBits, lens[:nlit], litEntry)
	if !ok {
		return z.corrupt()
	}
	distMin, ok := build(z.dist[:], distBits, lens[nlit:], distEntry)
	if !ok {
		return z.corrupt()
	}
	// compress/flate reads as many bits as the end-of-block code holds
	// before it decodes any literal/length symbol.
	z.litMin, z.distMin = max(litMin, uint(lens[256])), distMin
	z.lt, z.dt = &z.lit, &z.dist
	return nil
}

// storedData copies the current stored block into the window.
func (z *gzipReader) storedData() error {
	for z.stored > 0 {
		if z.wr >= winStop {
			return nil
		}
		if z.pos == z.end && !z.fill() {
			return noEOF(z.srcErr)
		}
		n := min(z.stored, winStop-z.wr, z.end-z.pos)
		copy(z.win[z.wr:], z.in[z.pos:z.pos+n])
		z.pos += n
		z.wr += n
		z.stored -= n
	}
	return z.endBlock()
}

// huffman decodes the current Huffman block: in the fast loop while 8
// input bytes remain, and then one exact symbol at a time.
func (z *gzipReader) huffman() error {
	for z.wr < winStop {
		if z.end-z.pos < 8 {
			z.fill()
		}
		if z.end-z.pos >= 8 {
			switch z.fast() {
			case fastEOB:
				return z.endBlock()
			case fastCorrupt:
				return z.corrupt()
			}
			continue
		}
		eob, err := z.exact()
		if err != nil {
			return err
		}
		if eob {
			return z.endBlock()
		}
	}
	return nil
}

// Why the fast loop stopped.
const (
	fastMore    = iota // input or window room ran low
	fastEOB            // the block ended
	fastCorrupt        // a symbol or distance was invalid
)

// fast decodes symbols while at least 8 input bytes and a longest
// match's room remain. Each iteration refills the bit buffer to at
// least 56 bits, more than one literal/length symbol and its distance
// take, so no symbol runs out of input.
func (z *gzipReader) fast() int {
	lt, dt := z.lt, z.dt
	in, win := z.in[:z.end], z.win
	buf, nb := z.bitBuf, z.nb
	pos, wr, hist := z.pos, z.wr, z.hist
	status := fastMore
	for pos <= len(in)-8 && wr < winStop {
		buf |= binary.LittleEndian.Uint64(in[pos:]) << (nb & 63)
		pos += int((63 - nb) >> 3)
		nb |= 56
		e := lt[buf&(1<<litBits-1)]
		if e&eSub != 0 {
			e = lt[int(e>>16)+int(buf>>litBits)&(1<<(e>>4&15)-1)]
		}
		buf >>= e & 15
		nb -= uint(e & 15)
		if e&eLit != 0 {
			win[wr] = byte(e >> 16)
			wr++
			// Two more literals fit in the bits left; any other
			// symbol waits for the next refill.
			for range 2 {
				if e = lt[buf&(1<<litBits-1)]; e&eLit == 0 {
					break
				}
				buf >>= e & 15
				nb -= uint(e & 15)
				win[wr] = byte(e >> 16)
				wr++
			}
			continue
		}
		if e&eBase == 0 {
			status = fastCorrupt
			if e&eEOB != 0 {
				status = fastEOB
			}
			break
		}
		x := e >> 4 & 15
		length := int(e>>16) + int(buf&(1<<x-1))
		buf >>= x
		nb -= uint(x)
		d := dt[buf&(1<<distBits-1)]
		if d&eSub != 0 {
			d = dt[int(d>>16)+int(buf>>distBits)&(1<<(d>>4&15)-1)]
		}
		if d&eBase == 0 {
			status = fastCorrupt
			break
		}
		buf >>= d & 15
		nb -= uint(d & 15)
		x = d >> 4 & 15
		dist := int(d>>16) + int(buf&(1<<x-1))
		buf >>= x
		nb -= uint(x)
		if dist > wr-hist {
			status = fastCorrupt
			break
		}
		end := wr + length
		if dist >= 8 {
			for src := wr - dist; wr < end; src, wr = src+8, wr+8 {
				binary.LittleEndian.PutUint64(win[wr:], binary.LittleEndian.Uint64(win[src:]))
			}
		} else {
			for ; wr < end; wr++ {
				win[wr] = win[wr-dist]
			}
		}
		wr = end
	}
	z.bitBuf, z.nb = buf&(1<<(nb&63)-1), nb
	z.pos, z.wr = pos, wr
	return status
}

// exact decodes one symbol, and for a match its distance, reading
// input only as compress/flate does: its errors at the input's end are
// compress/flate's.
func (z *gzipReader) exact() (eob bool, err error) {
	e, err := z.symbol(z.lt[:], litBits, z.litMin)
	if err != nil {
		return false, err
	}
	switch {
	case e&eLit != 0:
		z.win[z.wr] = byte(e >> 16)
		z.wr++
		return false, nil
	case e&eEOB != 0:
		return true, nil
	}
	length, err := z.extra(e)
	if err != nil {
		return false, err
	}
	d, err := z.symbol(z.dt[:], distBits, z.distMin)
	if err != nil {
		return false, err
	}
	dist, err := z.extra(d)
	if err != nil {
		return false, err
	}
	if dist > z.wr-z.hist {
		return false, z.corrupt()
	}
	for end := z.wr + length; z.wr < end; z.wr++ {
		z.win[z.wr] = z.win[z.wr-dist]
	}
	return false, nil
}

// symbol decodes one symbol with table t, reading as compress/flate
// does: first bits before the first probe (none for an empty code),
// then more while the code the bits so far lead to is longer than
// they are.
func (z *gzipReader) symbol(t []uint32, width, first uint) (uint32, error) {
	if !z.need(first) {
		return 0, z.inputErr()
	}
	for {
		e := t[z.bitBuf&(1<<width-1)]
		if e&eSub != 0 {
			e = t[int(e>>16)+int(z.bitBuf>>width)&(1<<(e>>4&15)-1)]
		}
		n := uint(e & 15)
		if n > z.nb {
			if !z.need(n) {
				return 0, z.inputErr()
			}
			continue
		}
		if e&eKind == 0 {
			return 0, z.corrupt()
		}
		z.drop(n)
		return e, nil
	}
}

// extra reads entry e's extra bits and returns its value.
func (z *gzipReader) extra(e uint32) (int, error) {
	x := uint(e >> 4 & 15)
	if !z.need(x) {
		return 0, z.inputErr()
	}
	v := int(e>>16) + int(z.bitBuf&(1<<x-1))
	z.drop(x)
	return v, nil
}

// need makes the bit buffer hold at least n bits, reading a byte at a
// time; false when the input ends first.
func (z *gzipReader) need(n uint) bool {
	for z.nb < n {
		if z.pos == z.end && !z.fill() {
			return false
		}
		z.bitBuf |= uint64(z.in[z.pos]) << z.nb
		z.pos++
		z.nb += 8
	}
	return true
}

func (z *gzipReader) drop(n uint) {
	z.bitBuf >>= n
	z.nb -= n
}

// align hands the bit buffer's whole bytes back to the input and drops
// the rest of the current byte, for a byte-aligned read.
func (z *gzipReader) align() {
	z.pos -= int(z.nb >> 3)
	z.bitBuf, z.nb = 0, 0
}

// fill reads more input behind in[pos:end], keeping the inKeep bytes
// in front of pos. It reports whether any arrived; once the source
// fails or ends, srcErr holds its error.
func (z *gzipReader) fill() bool {
	if z.srcErr != nil {
		return false
	}
	if keep := z.pos - inKeep; keep > 0 {
		z.end = copy(z.in, z.in[keep:z.end])
		z.pos -= keep
		z.base += int64(keep)
	}
	for range 100 {
		n, err := z.src.Read(z.in[z.end:])
		z.end += n
		if err != nil {
			z.srcErr = err
		}
		if n > 0 || err != nil {
			return n > 0
		}
	}
	z.srcErr = io.ErrNoProgress
	return false
}

// readFull reads len(p) bytes as io.ReadFull does, with its errors.
func (z *gzipReader) readFull(p []byte) error {
	for n := 0; n < len(p); {
		if z.pos == z.end && !z.fill() {
			if n > 0 && z.srcErr == io.EOF {
				return io.ErrUnexpectedEOF
			}
			return z.srcErr
		}
		m := copy(p[n:], z.in[z.pos:z.end])
		z.pos += m
		n += m
	}
	return nil
}

// inputErr is the error of a deflate stream its input cut short.
func (z *gzipReader) inputErr() error { return noEOF(z.srcErr) }

// corrupt is the error of invalid deflate data, at the offset, inside
// the member's deflate stream, of the byte after the bits consumed.
func (z *gzipReader) corrupt() error {
	return flate.CorruptInputError(z.base + int64(z.pos) - int64(z.nb>>3) - z.streamOff)
}

// noEOF turns io.EOF into io.ErrUnexpectedEOF.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
