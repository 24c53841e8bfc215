package stm

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"unsafe"
)

// Ref is a typed handle to a fixed-size object in the transactional heap.
// T must be a pointer-free type (no Go pointers, maps, slices, strings,
// channels, funcs or interfaces anywhere in it — heap words are plain
// uint64 storage, and a Go pointer round-tripped through one would escape
// the collector); Addr-valued fields are the supported way to link
// objects. A Ref is a plain value (an address plus a word count): copy it
// freely, store it in other objects via Addr, rebuild it with RefAt.
//
// Load and Store move the whole object through the multi-word primitives
// (Tx.LoadWords / Tx.StoreWords), so an object costs one footprint touch
// — and, for words sharing an ownership record, one lock sample and one
// read-set entry — instead of one per word, and a whole-object Store
// publishes its snapshot-history records as one contiguous group that
// snapshot readers reconstruct with a single index probe.
//
// The zero Ref is nil: its Addr is Nil and Load/Store panic on it.
type Ref[T any] struct {
	addr  Addr
	words int32
}

// AllocRef allocates a fresh object of type T at the given allocation
// site and returns its handle. The object's words start zero (or, for
// recycled memory, hold their previous committed contents — see
// Tx.Alloc); Store the initial value before publishing the reference. It
// panics if T is not a valid heap object type (see Ref).
func AllocRef[T any](tx *Tx, site SiteID) Ref[T] {
	w := refWords[T]()
	return Ref[T]{addr: tx.Alloc(site, w), words: int32(w)}
}

// RefAt wraps existing heap storage at addr as a Ref[T]. The caller
// asserts that the words of a T at addr belong to one object; RefAt
// panics if T is not a valid heap object type. RefAt(Nil) is the nil
// Ref.
func RefAt[T any](addr Addr) Ref[T] {
	w := refWords[T]()
	if addr == Nil {
		return Ref[T]{}
	}
	return Ref[T]{addr: addr, words: int32(w)}
}

// Addr returns the object's heap address (Nil for the nil Ref) — the
// currency for linking objects: store it in another object's Addr field,
// or through Tx.StoreAddr when the link should feed the partition
// profiler.
func (r Ref[T]) Addr() Addr { return r.addr }

// Words returns the object's size in heap words (0 for the nil Ref).
func (r Ref[T]) Words() int { return int(r.words) }

// WordAddr returns the heap address of the object's i-th word, for mixing
// Ref objects with the word-level escape hatch (e.g. Tx.StoreAddr on a
// link field so profiling sees the edge).
func (r Ref[T]) WordAddr(i int) Addr {
	if i < 0 || i >= int(r.words) {
		panic(fmt.Sprintf("stm: WordAddr(%d) out of range for %d-word Ref", i, r.words))
	}
	return r.addr + Addr(i)
}

// Load transactionally reads the whole object.
func (r Ref[T]) Load(tx *Tx) T {
	var v T
	n := r.use()
	if wordViewable(&v) {
		// Word-sized, word-aligned layout: read straight into v's storage.
		tx.LoadWords(r.addr, unsafe.Slice((*uint64)(unsafe.Pointer(&v)), n))
		return v
	}
	var stack [refStackWords]uint64
	buf := wordBuf(&stack, n)
	tx.LoadWords(r.addr, buf)
	copy(byteView(&v), wordBytes(buf))
	return v
}

// Store transactionally writes the whole object.
func (r Ref[T]) Store(tx *Tx, v T) {
	n := r.use()
	if wordViewable(&v) {
		tx.StoreWords(r.addr, unsafe.Slice((*uint64)(unsafe.Pointer(&v)), n))
		return
	}
	var stack [refStackWords]uint64
	buf := wordBuf(&stack, n) // zero: the padding tail of the last word stays 0
	copy(wordBytes(buf), byteView(&v))
	tx.StoreWords(r.addr, buf)
}

// refStackWords is the largest object Load and Store stage in a stack
// array when T's layout is not word-viewable; larger ones take a heap
// buffer.
const refStackWords = 8

// wordBuf returns a zeroed n-word staging buffer: the caller's stack array
// when it is big enough, a fresh slice otherwise.
func wordBuf(stack *[refStackWords]uint64, n int) []uint64 {
	if n <= refStackWords {
		return stack[:n]
	}
	return make([]uint64, n)
}

// wordViewable reports whether v's storage may be reinterpreted as
// []uint64 directly: both the size AND the alignment must be
// word-multiple (a size-8, align-4 struct can land on a 4-mod-8 stack
// address, where the cast would be a misaligned pointer conversion).
func wordViewable[T any](v *T) bool {
	return unsafe.Sizeof(*v)&7 == 0 && unsafe.Alignof(*v) == 8
}

// Free schedules the object for recycling if and when the transaction
// commits; the caller must already have unlinked it (see Tx.Free).
func (r Ref[T]) Free(tx *Tx) {
	tx.Free(r.addr, int(r.words))
}

// use validates the handle on the hot path.
func (r Ref[T]) use() int {
	if r.addr == Nil || r.words == 0 {
		panic("stm: Load/Store through a nil or zero Ref")
	}
	return int(r.words)
}

// byteView reinterprets v's storage as bytes.
func byteView[T any](v *T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(v)), int(unsafe.Sizeof(*v)))
}

// wordBytes reinterprets a word slice as bytes.
func wordBytes(w []uint64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(&w[0])), len(w)*8)
}

// refTypes records which types have passed validation, as an insert-only
// open-addressed set of type words: RefAt sits on per-node traversal hot
// paths (list walks rebuild a handle per node), where T's size is a
// constant of the instantiation and all that is left to answer is "has this
// T been validated" — one atomic load of the type's home slot, no hashing of
// an interface, no map.
var refTypes [1 << refTypeBits]atomic.Uintptr

const refTypeBits = 9

// typeWord returns the address of *T's runtime type descriptor: a per-type
// constant, unique to T, read out of an interface value's type word.
func typeWord[T any]() uintptr {
	e := any((*T)(nil))
	return *(*uintptr)(unsafe.Pointer(&e))
}

// refWords returns (and, the first time a type is seen, validates) T's heap
// footprint in words.
func refWords[T any]() int {
	tw := typeWord[T]()
	home := (tw * 0x9E3779B97F4A7C15) >> (64 - refTypeBits)
	if refTypes[home].Load() != tw {
		admitRefType[T](tw, home)
	}
	var v T
	return int((unsafe.Sizeof(v) + 7) / 8)
}

// admitRefType is refWords' slow path: find tw past its home slot, or
// validate T (panicking if it cannot live in the heap) and claim the first
// free slot of its probe sequence. A full table validates every call.
func admitRefType[T any](tw, i uintptr) {
	for range refTypes {
		switch refTypes[i].Load() {
		case tw:
			return
		case 0:
			validateRefType(reflect.TypeFor[T]())
			if refTypes[i].CompareAndSwap(0, tw) {
				return
			}
			continue // lost the slot to a concurrent admit: look at it again
		}
		i = (i + 1) & (uintptr(len(refTypes)) - 1)
	}
	validateRefType(reflect.TypeFor[T]())
}

// validateRefType panics unless t is a valid heap object type (see Ref).
func validateRefType(t reflect.Type) {
	if t.Size() == 0 {
		panic(fmt.Sprintf("stm: Ref[%v]: zero-size type has no heap footprint", t))
	}
	if bad, ok := pointerField(t); ok {
		panic(fmt.Sprintf("stm: Ref[%v]: %s cannot live in the transactional heap (use Addr to link objects)", t, bad))
	}
}

// pointerField walks t and reports the first pointer-carrying component,
// if any.
func pointerField(t reflect.Type) (string, bool) {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return "", false
	case reflect.Array:
		if bad, ok := pointerField(t.Elem()); ok {
			return bad, true
		}
		return "", false
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if bad, ok := pointerField(f.Type); ok {
				return fmt.Sprintf("field %s (%s)", f.Name, bad), true
			}
		}
		return "", false
	default:
		return fmt.Sprintf("kind %v", t.Kind()), true
	}
}
