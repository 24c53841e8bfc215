// Package txds provides transactional data structures built on the stm
// heap: a sorted linked list, a skip list, a red-black tree, a hash set
// and a counter array.
//
// These are the workloads of the paper's evaluation: the integer-set
// microbenchmarks (list, skip list, red-black tree, hash set) and the
// building blocks of the application benchmarks (vacation's reservation
// tables are red-black trees; bank uses a counter array).
//
// Every structure allocates its nodes at named allocation sites
// ("<name>.node", "<name>.head", ...) and links them with Tx.StoreAddr,
// so a profiling run discovers each structure as one connected component
// and the partitioner places it in its own partition.
//
// Structures with fixed-size nodes (list) model them as typed
// objects (stm.Ref): a traversal loads each node with one multi-word
// read instead of one word at a time, and node publication is one
// multi-word write whose snapshot-history records group contiguously —
// link fields still go through Tx.StoreAddr so profiling sees the edges.
//
// All operations take the Tx of an enclosing atomic block; structures are
// safe for concurrent use through transactions. Keys and values are
// uint64; key 0 is valid.
package txds

// Structure field offsets shared by this package's node layouts.
const (
	offKey  = 0
	offVal  = 1
	offNext = 2
)
