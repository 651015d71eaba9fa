package rtl

import (
	"fmt"
	"strings"
)

// Block is a basic block: a straight-line sequence of instructions with
// a single entry at the top. Only the final instruction may transfer
// control. A block that does not end in a jump, return or unconditional
// branch falls through to the next block in the function's positional
// order; a conditional branch falls through when not taken.
//
// The ID is a stable label: branch targets refer to block IDs, so
// blocks can be reordered, merged and deleted without rewriting
// unrelated instructions.
type Block struct {
	ID     int
	Instrs []Instr
}

// Last returns a pointer to the final instruction, or nil for an empty
// block.
func (b *Block) Last() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	return &b.Instrs[len(b.Instrs)-1]
}

// EndsInControl reports whether the block's final instruction transfers
// control.
func (b *Block) EndsInControl() bool {
	last := b.Last()
	return last != nil && last.Op.IsControl()
}

// Insert places instruction in at position i.
func (b *Block) Insert(i int, in Instr) {
	b.Instrs = append(b.Instrs, Instr{})
	copy(b.Instrs[i+1:], b.Instrs[i:])
	b.Instrs[i] = in
}

// Remove deletes the instruction at position i.
func (b *Block) Remove(i int) {
	b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
}

// Clone returns a deep copy of the block.
func (b *Block) Clone() *Block {
	nb := &Block{ID: b.ID, Instrs: make([]Instr, len(b.Instrs))}
	copy(nb.Instrs, b.Instrs)
	return nb
}

// Slot describes one frame-allocated local variable or spill slot.
// Offsets are byte offsets from the stack pointer. A scalar slot whose
// address is never taken is a candidate for the register allocation
// phase, which promotes it to a register.
type Slot struct {
	Name   string
	Offset int32
	Size   int32
	Scalar bool // promotable: word-sized, address never taken
}

// Func is a single function in RTL form. Blocks[0] is the entry block.
// Blocks are kept in positional (layout) order, which determines
// fall-through behaviour.
type Func struct {
	Name    string
	NArgs   int
	Returns bool

	Blocks []*Block

	// Slots lists the stack-frame slots for locals (and, after
	// register assignment, spills). FrameSize is the total frame size
	// in bytes.
	Slots     []Slot
	FrameSize int32

	// NextPseudo is the next unallocated pseudo register number.
	NextPseudo Reg

	// NextBlockID is the next unused block ID.
	NextBlockID int

	// RegAssigned records that the compulsory register assignment pass
	// has run: all pseudo registers have been mapped onto hardware
	// registers.
	RegAssigned bool

	// EntryExitFixed records that the compulsory entry/exit fixup has
	// inserted the callee-save save/restore code. Before that point the
	// callee-save registers are ordinary storage, so the verifier's
	// callee-save preservation rule only applies once this is set.
	EntryExitFixed bool

	// blockStore and instrStore are the backing arrays a clone was
	// built into, retained so CloneReusing can recycle them once the
	// clone's contents are dead. Structural mutations may stop the
	// Blocks/Instrs slices pointing into them; only the capacity
	// matters.
	blockStore []Block
	instrStore []Instr

	// snap is the analysis snapshot f owns (ShareAnalyses; snap.f == f)
	// or, on a clone of an owner, has borrowed and not yet consumed.
	snap *snapshot
}

// NewFunc returns an empty function with a single entry block.
func NewFunc(name string, nargs int, returns bool) *Func {
	f := &Func{
		Name:       name,
		NArgs:      nargs,
		Returns:    returns,
		NextPseudo: FirstPseudo,
	}
	f.AddBlock()
	return f
}

// NewReg allocates a fresh pseudo register.
func (f *Func) NewReg() Reg {
	r := f.NextPseudo
	f.NextPseudo++
	return r
}

// AddBlock appends a new empty block and returns it.
func (f *Func) AddBlock() *Block {
	b := &Block{ID: f.NextBlockID}
	f.NextBlockID++
	f.Blocks = append(f.Blocks, b)
	return b
}

// NewDetachedBlock creates a block with a fresh ID without inserting it
// into the layout; callers place it with InsertBlockAfter.
func (f *Func) NewDetachedBlock() *Block {
	b := &Block{ID: f.NextBlockID}
	f.NextBlockID++
	return b
}

// AppendBlock places an existing (detached) block at the end of the
// layout.
func (f *Func) AppendBlock(b *Block) { f.Blocks = append(f.Blocks, b) }

// InsertBlockAfter places block nb immediately after the block at
// layout position i.
func (f *Func) InsertBlockAfter(i int, nb *Block) {
	f.Blocks = append(f.Blocks, nil)
	copy(f.Blocks[i+2:], f.Blocks[i+1:])
	f.Blocks[i+1] = nb
}

// RemoveBlockAt deletes the block at layout position i.
func (f *Func) RemoveBlockAt(i int) {
	f.Blocks = append(f.Blocks[:i], f.Blocks[i+1:]...)
}

// AddSlot reserves a new frame slot of the given size and returns its
// offset.
func (f *Func) AddSlot(name string, size int32, scalar bool) int32 {
	off := f.FrameSize
	f.Slots = append(f.Slots, Slot{Name: name, Offset: off, Size: size, Scalar: scalar})
	f.FrameSize += size
	return off
}

// SlotAt returns the slot covering the given offset, or nil.
func (f *Func) SlotAt(offset int32) *Slot {
	for i := range f.Slots {
		s := &f.Slots[i]
		if offset >= s.Offset && offset < s.Offset+s.Size {
			return s
		}
	}
	return nil
}

// BlockIndex returns the layout position of the block with the given
// ID, or -1 when no such block exists.
func (f *Func) BlockIndex(id int) int {
	for i, b := range f.Blocks {
		if b.ID == id {
			return i
		}
	}
	return -1
}

// BlockByID returns the block with the given ID, or nil.
func (f *Func) BlockByID(id int) *Block {
	if i := f.BlockIndex(id); i >= 0 {
		return f.Blocks[i]
	}
	return nil
}

// Entry returns the entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// NumInstrs returns the static instruction count, the paper's code-size
// metric.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// NumBranches counts conditional and unconditional transfers of
// control, matching the paper's "Brch" statistic.
func (f *Func) NumBranches() int {
	n := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if op := b.Instrs[i].Op; op == OpBranch || op == OpJmp {
				n++
			}
		}
	}
	return n
}

// Clone returns a deep copy of the function. The enumeration engine
// clones aggressively, so this is kept allocation-lean.
func (f *Func) Clone() *Func { return f.CloneReusing(nil) }

// CloneReusing is Clone recycling the storage of scratch — an earlier
// clone whose contents are dead. The enumeration discards most of the
// clones it makes (dormant attempts, duplicate instances, explored
// frontier nodes) and pools them; reusing their arrays keeps the
// per-attempt clone almost allocation-free. A nil scratch, or one
// whose arrays are too small, falls back to fresh allocations.
// scratch must not share storage with f. A clone of an instance that
// is sharing its analyses (ShareAnalyses) borrows them (CFGOf).
func (f *Func) CloneReusing(scratch *Func) *Func {
	n := len(f.Blocks)
	total := 0
	for _, b := range f.Blocks {
		total += len(b.Instrs)
	}
	nf := scratch
	if nf == nil {
		nf = &Func{}
	}
	blocks, instrs, blkPtrs, slots := nf.blockStore, nf.instrStore, nf.Blocks, nf.Slots
	if cap(blocks) < n {
		blocks = make([]Block, n)
	}
	if cap(instrs) < total {
		instrs = make([]Instr, total)
	}
	if cap(blkPtrs) < n {
		blkPtrs = make([]*Block, n)
	}
	if cap(slots) < len(f.Slots) {
		slots = make([]Slot, len(f.Slots))
	}
	blocks, instrs, blkPtrs, slots = blocks[:n], instrs[:total], blkPtrs[:n], slots[:len(f.Slots)]
	*nf = Func{
		Name:           f.Name,
		NArgs:          f.NArgs,
		Returns:        f.Returns,
		Blocks:         blkPtrs,
		Slots:          slots,
		FrameSize:      f.FrameSize,
		NextPseudo:     f.NextPseudo,
		NextBlockID:    f.NextBlockID,
		RegAssigned:    f.RegAssigned,
		EntryExitFixed: f.EntryExitFixed,
		blockStore:     blocks,
		instrStore:     instrs,
	}
	if f.snap != nil && f.snap.f == f {
		nf.snap = f.snap
	}
	at := 0
	for i, b := range f.Blocks {
		k := len(b.Instrs)
		dst := instrs[at : at+k : at+k]
		copy(dst, b.Instrs)
		blocks[i] = Block{ID: b.ID, Instrs: dst}
		blkPtrs[i] = &blocks[i]
		at += k
	}
	copy(slots, f.Slots)
	return nf
}

// String renders the function in the paper's textual RTL notation.
func (f *Func) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s(%d):\n", f.Name, f.NArgs)
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "L%d:\n", b.ID)
		for i := range b.Instrs {
			fmt.Fprintf(&sb, "\t%s\n", b.Instrs[i].String())
		}
	}
	return sb.String()
}

// UsedRegs returns the set of registers referenced anywhere in the
// function.
func (f *Func) UsedRegs() RegSet {
	used := NewRegSet(int(f.NextPseudo))
	var buf [8]Reg
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			for _, r := range in.Defs(buf[:0]) {
				used.Add(r)
			}
			for _, r := range in.Uses(buf[:0]) {
				used.Add(r)
			}
		}
	}
	return used
}

// Global is a program-level data object: a word array with optional
// initial values (zero-filled beyond Init).
type Global struct {
	Name  string
	Words int32
	Init  []int32
}

// Program is a set of functions plus global data, the unit the mini-C
// frontend produces and the interpreter executes.
type Program struct {
	Globals []Global
	Funcs   []*Func
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Global returns the global with the given name, or nil.
func (p *Program) Global(name string) *Global {
	for i := range p.Globals {
		if p.Globals[i].Name == name {
			return &p.Globals[i]
		}
	}
	return nil
}

// Clone deep-copies the program.
func (p *Program) Clone() *Program {
	np := &Program{
		Globals: make([]Global, len(p.Globals)),
		Funcs:   make([]*Func, len(p.Funcs)),
	}
	for i, g := range p.Globals {
		ng := g
		ng.Init = append([]int32(nil), g.Init...)
		np.Globals[i] = ng
	}
	for i, f := range p.Funcs {
		np.Funcs[i] = f.Clone()
	}
	return np
}
