// Package metadata implements the RegLess instruction-stream metadata
// encoding (paper §5.4). The compiler's per-region annotations — bank
// usage, preloads, cache invalidations, and per-instruction last-use
// (erase/evict) flags — are packed into 54-bit payloads carried by
// metadata instructions interleaved with the real instruction stream
// (64-bit instructions minus a 10-bit opcode).
//
// Layout (one deviation from the paper is noted below):
//
//   - A region begins with a *flag word*: 8 banks x 4 bits of bank usage
//     (32 bits), a 6-bit entry count, and the first two register entries
//     (8 bits each: 1 kind bit, 6 reg bits, 1 invalidate bit) — 54 bits.
//   - Additional *entry words* carry 6 register entries each.
//   - *Last-use words* carry 2 bits per operand slot (is-last-use,
//     erase-vs-evict) for 4 operand slots per instruction, 6 instructions
//     per word. (The paper packs 9 instructions per word with 3 operand
//     slots; our ISA has up to 4 operand slots, so 6 x 8 = 48 bits.)
//   - Regions with at most 3 instructions, at most 1 entry, and coarse
//     bank usage use a single *compact word* (count + 2-bit bank usages +
//     entry + flags), mirroring the paper's single-instruction encoding
//     for small control-flow-heavy regions.
//
// Encoding is real: Encode produces the words and Decode reconstructs the
// annotations bit-exactly, which the tests verify. The word count is the
// per-region overhead charged by the timing and energy models.
package metadata

import (
	"fmt"
	"sort"

	"repro/internal/isa"
	"repro/internal/regions"
)

// PayloadBits is the metadata capacity of one instruction (64 - 10).
const PayloadBits = 54

const (
	bankFieldBits   = 4
	regBits         = 6 // up to 64 architectural registers
	entryBits       = 8 // kind(1) + reg(6) + flag(1)
	countBits       = 6
	maxEntries      = 1<<countBits - 1
	flagWordEntries = 2 // 32 + 6 + 2x8 = 54
	entryWordSlots  = 6 // 6x8 = 48 <= 54
	insnFlagBits    = 8 // 4 operand slots x (last-use, erase-vs-evict)
	lastUseInsns    = 6 // 6x8 = 48 <= 54

	// Compact form: count(2) + 8 banks x 2-bit coarse usage (16) +
	// 1 entry (8) + 3 instructions of flags (24) = 50 <= 54.
	compactInsns     = 3
	compactEntries   = 1
	compactBankBits  = 2
	compactBankLimit = 1<<compactBankBits - 1
)

// Entry is one register entry: a preload (with optional invalidating-read
// flag) or a cache invalidation.
type Entry struct {
	Reg        isa.Reg
	Invalidate bool // for preloads: invalidating read
	CacheInval bool // kind bit: cache invalidation rather than preload
}

// InsnFlags carries the last-use markers for one instruction's operand
// slots: slot order is Src0, Src1, Src2, Dst.
type InsnFlags struct {
	LastUse [4]bool
	// Erase[i] distinguishes erase (true: dead interior value, line
	// freed) from evict (false: line becomes evictable) when LastUse[i].
	Erase [4]bool
}

// Annotations is the decodable content of one region's metadata.
type Annotations struct {
	BankUsage [isa.NumBanks]int
	Entries   []Entry
	Flags     []InsnFlags // one per instruction in the region
	Compact   bool        // encoded with the single-word compact form
}

// Build collects a region's annotations into encodable form. Last-use
// flags are derived from the region's EraseAt/EvictAt maps by matching
// registers to the instruction's operand slots.
func Build(c *regions.Compiled, r *regions.Region) Annotations {
	a := Annotations{BankUsage: r.BankUsage}
	for _, p := range r.Preloads {
		a.Entries = append(a.Entries, Entry{Reg: p.Reg, Invalidate: p.Invalidate})
	}
	for _, reg := range r.CacheInvalidations {
		a.Entries = append(a.Entries, Entry{Reg: reg, CacheInval: true})
	}
	sort.Slice(a.Entries, func(i, j int) bool {
		if a.Entries[i].CacheInval != a.Entries[j].CacheInval {
			return !a.Entries[i].CacheInval
		}
		return a.Entries[i].Reg < a.Entries[j].Reg
	})

	blk := c.Kernel.Blocks[r.Block]
	for i := r.Start; i < r.End; i++ {
		gi := r.StartGI + (i - r.Start)
		in := &blk.Insns[i]
		var f InsnFlags
		mark := func(reg isa.Reg, erase bool) {
			for s := 0; s < in.Op.NumSrc(); s++ {
				if in.Src[s] == reg && !f.LastUse[s] {
					f.LastUse[s] = true
					f.Erase[s] = erase
					return
				}
			}
			if in.Op.HasDst() && in.Dst == reg && !f.LastUse[3] {
				f.LastUse[3] = true
				f.Erase[3] = erase
			}
		}
		for _, reg := range r.EraseAt[gi] {
			mark(reg, true)
		}
		for _, reg := range r.EvictAt[gi] {
			mark(reg, false)
		}
		a.Flags = append(a.Flags, f)
	}
	a.Compact = len(a.Flags) <= compactInsns && len(a.Entries) <= compactEntries
	for _, u := range a.BankUsage {
		if u > compactBankLimit {
			a.Compact = false
		}
	}
	return a
}

// bitWriter packs little-endian bit fields into 54-bit words. Fields never
// straddle word boundaries: the encoder calls flush at layout-defined
// points, and put panics on overflow to catch layout bugs in tests.
type bitWriter struct {
	words []uint64
	cur   uint64
	used  int
}

func (w *bitWriter) put(v uint64, bits int) {
	if w.used+bits > PayloadBits {
		panic(fmt.Sprintf("metadata: word overflow (%d+%d bits)", w.used, bits))
	}
	w.cur |= v << uint(w.used)
	w.used += bits
}

func (w *bitWriter) flush() {
	w.words = append(w.words, w.cur)
	w.cur = 0
	w.used = 0
}

type bitReader struct {
	words []uint64
	idx   int
	cur   uint64
	used  int
}

func (r *bitReader) get(bits int) uint64 {
	if r.used+bits > PayloadBits {
		panic(fmt.Sprintf("metadata: word underflow (%d+%d bits)", r.used, bits))
	}
	v := (r.cur >> uint(r.used)) & ((1 << uint(bits)) - 1)
	r.used += bits
	return v
}

func (r *bitReader) next() {
	r.idx++
	r.cur = r.words[r.idx]
	r.used = 0
}

func putEntry(w *bitWriter, e Entry) {
	kind := uint64(0)
	if e.CacheInval {
		kind = 1
	}
	flag := uint64(0)
	if e.Invalidate {
		flag = 1
	}
	w.put(kind|uint64(e.Reg)<<1|flag<<(1+regBits), entryBits)
}

func getEntry(r *bitReader) Entry {
	v := r.get(entryBits)
	return Entry{
		CacheInval: v&1 != 0,
		Reg:        isa.Reg((v >> 1) & (1<<regBits - 1)),
		Invalidate: v>>(1+regBits)&1 != 0,
	}
}

func putFlags(w *bitWriter, f InsnFlags) {
	var v uint64
	for s := 0; s < 4; s++ {
		if f.LastUse[s] {
			v |= 1 << uint(2*s)
		}
		if f.Erase[s] {
			v |= 1 << uint(2*s+1)
		}
	}
	w.put(v, insnFlagBits)
}

func getFlags(r *bitReader) InsnFlags {
	v := r.get(insnFlagBits)
	var f InsnFlags
	for s := 0; s < 4; s++ {
		f.LastUse[s] = v&(1<<uint(2*s)) != 0
		f.Erase[s] = v&(1<<uint(2*s+1)) != 0
	}
	return f
}

// Encode packs annotations into 54-bit metadata words. It returns an error
// if a field exceeds its encoding range (bank usage >= 16, reg >= 64).
func Encode(a Annotations) ([]uint64, error) {
	for _, u := range a.BankUsage {
		if u >= 1<<bankFieldBits {
			return nil, fmt.Errorf("metadata: bank usage %d exceeds %d-bit field", u, bankFieldBits)
		}
	}
	for _, e := range a.Entries {
		if int(e.Reg) >= 1<<regBits {
			return nil, fmt.Errorf("metadata: register %v exceeds %d-bit field", e.Reg, regBits)
		}
	}
	if len(a.Entries) > maxEntries {
		return nil, fmt.Errorf("metadata: %d entries exceed the %d-entry count field", len(a.Entries), maxEntries)
	}
	w := &bitWriter{}
	if a.Compact {
		if len(a.Entries) > compactEntries || len(a.Flags) > compactInsns {
			return nil, fmt.Errorf("metadata: compact form overflow (%d entries, %d insns)",
				len(a.Entries), len(a.Flags))
		}
		for _, u := range a.BankUsage {
			if u > compactBankLimit {
				return nil, fmt.Errorf("metadata: bank usage %d exceeds compact %d-bit field", u, compactBankBits)
			}
		}
		w.put(uint64(len(a.Entries)), 2)
		for _, u := range a.BankUsage {
			w.put(uint64(u), compactBankBits)
		}
		for _, e := range a.Entries {
			putEntry(w, e)
		}
		for _, f := range a.Flags {
			putFlags(w, f)
		}
		w.flush()
		return w.words, nil
	}
	// Flag word: bank usage + entry count + the first entry.
	for _, u := range a.BankUsage {
		w.put(uint64(u), bankFieldBits)
	}
	w.put(uint64(len(a.Entries)), countBits)
	n := len(a.Entries)
	if n > flagWordEntries {
		n = flagWordEntries
	}
	for i := 0; i < n; i++ {
		putEntry(w, a.Entries[i])
	}
	w.flush()
	// Entry words, entryWordSlots entries per word.
	if len(a.Entries) > n {
		for i := n; i < len(a.Entries); i++ {
			putEntry(w, a.Entries[i])
			if (i-n)%entryWordSlots == entryWordSlots-1 {
				w.flush()
			}
		}
		if w.used > 0 {
			w.flush()
		}
	}
	// Last-use words, lastUseInsns instructions per word.
	if len(a.Flags) > 0 {
		for i, f := range a.Flags {
			putFlags(w, f)
			if i%lastUseInsns == lastUseInsns-1 {
				w.flush()
			}
		}
		if w.used > 0 {
			w.flush()
		}
	}
	return w.words, nil
}

// Decode reconstructs annotations from words. numInsns is the region's
// instruction count (needed to know how many flag groups follow) and
// compact selects the compact form.
func Decode(words []uint64, numInsns int, compact bool) (Annotations, error) {
	if len(words) == 0 {
		return Annotations{}, fmt.Errorf("metadata: empty encoding")
	}
	r := &bitReader{words: words, cur: words[0]}
	a := Annotations{Compact: compact}
	if compact {
		n := int(r.get(2))
		for b := 0; b < isa.NumBanks; b++ {
			a.BankUsage[b] = int(r.get(compactBankBits))
		}
		for i := 0; i < n; i++ {
			a.Entries = append(a.Entries, getEntry(r))
		}
		for i := 0; i < numInsns; i++ {
			a.Flags = append(a.Flags, getFlags(r))
		}
		return a, nil
	}
	for b := 0; b < isa.NumBanks; b++ {
		a.BankUsage[b] = int(r.get(bankFieldBits))
	}
	total := int(r.get(countBits))
	n := total
	if n > flagWordEntries {
		n = flagWordEntries
	}
	for i := 0; i < n; i++ {
		a.Entries = append(a.Entries, getEntry(r))
	}
	for i := n; i < total; i++ {
		if (i-n)%entryWordSlots == 0 {
			r.next()
		}
		a.Entries = append(a.Entries, getEntry(r))
	}
	for i := 0; i < numInsns; i++ {
		if i%lastUseInsns == 0 {
			r.next()
		}
		a.Flags = append(a.Flags, getFlags(r))
	}
	return a, nil
}

// Cost returns the number of metadata instructions one region requires.
func Cost(c *regions.Compiled, r *regions.Region) (int, error) {
	words, err := Encode(Build(c, r))
	if err != nil {
		return 0, err
	}
	return len(words), nil
}

// Apply computes and stores the metadata cost on every region and returns
// the kernel-wide total.
func Apply(c *regions.Compiled) (int, error) {
	total := 0
	for _, r := range c.Regions {
		n, err := Cost(c, r)
		if err != nil {
			return 0, fmt.Errorf("region %d: %w", r.ID, err)
		}
		r.MetaInsns = n
		total += n
	}
	return total, nil
}
