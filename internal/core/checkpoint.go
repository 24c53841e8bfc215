package core

import (
	"fmt"
	"runtime"

	"repro/internal/memory"
	"repro/internal/wal"
)

// Checkpoint writes a snapshot-consistent image of the heap into the
// log's directory and retires the segments it makes dead. It prefers an
// ONLINE scan — concurrent transactions keep committing while the image
// is taken at a pinned snapshot — and falls back to a stop-the-world
// copy under the quiescence gate when the online scan cannot prove
// consistency (a word overwritten past the snapshot with no multi-version
// record retained, a scan chasing a too-hot orec).
//
// The consistency argument for the online image: the log's publish
// horizon h0 is sampled BEFORE the snapshot version S. A commit tees
// (claims its sequence) only after assignWriteVersions, so any commit
// with seq <= h0 had already minted its version when h0 was read —
// before S was sampled from the same monotone clock — hence its version
// is <= S and its writes are fully contained in the image scanned at S.
// Records with seq > h0 may or may not be reflected; replaying them over
// the image is idempotent (absolute values in commit order). The scan is
// epoch-pinned at S through a borrowed pool slot so reclamation cannot
// recycle addresses out from under the multi-version reconstructions.
//
// Returns whether the image was taken online.
func (e *Engine) Checkpoint(log *wal.Log) (online bool, err error) {
	if log == nil {
		return false, fmt.Errorf("core: Checkpoint needs an attached log")
	}
	cp, online := e.checkpointImageOnline(log)
	if cp == nil {
		cp = e.checkpointImageSTW(log)
	}
	// The floor must not outrun the log: a crash after the image lands
	// but before the flusher syncs through cp.LastSeq would leave a
	// floor above every record on disk.
	if cp.LastSeq > 0 && !log.WaitDurable(cp.LastSeq) {
		return online, fmt.Errorf("core: checkpoint at seq %d: the log stopped below it (durable %d)", cp.LastSeq, log.DurableSeq())
	}
	if err := wal.WriteCheckpoint(log.Dir(), cp); err != nil {
		return online, err
	}
	log.NoteCheckpoint()
	return online, log.TruncateBefore(cp.LastSeq)
}

// checkpointImageOnline scans the arena at a pinned snapshot without
// stopping traffic. It returns (nil, false) when any word cannot be
// proven consistent at the snapshot — the caller then takes the
// stop-the-world image instead.
func (e *Engine) checkpointImageOnline(log *wal.Log) (*wal.Checkpoint, bool) {
	th := e.BorrowThread()
	defer e.ReturnThread(th)
	h0 := log.SeqHorizon()
	s := e.Clock()
	// Pin reclamation at S for the duration of the scan, exactly like a
	// long snapshot reader.
	e.epochs.Publish(th.slot, s)
	defer e.epochs.Clear(th.slot)
	nextBlock, blockSite := e.arena.SnapshotBlocks()
	topo := e.topo.Load()
	nWords := nextBlock << e.blockShift
	words := make([]uint64, nWords)
	blockWords := uint64(1) << e.blockShift
	// Block 0 is reserved (Addr 0 is nil); its words are never written
	// transactionally and stay zero in the image.
	for a := blockWords; a < nWords; a++ {
		addr := memory.Addr(a)
		ps := e.partOf(topo, addr).loadState()
		o := ps.table.of(addr)
		ok := false
		for try := 0; try < 128; try++ {
			l := o.lock.Load()
			if isLocked(l) {
				runtime.Gosched()
				continue
			}
			if versionOf(l) > s {
				break // overwritten past the snapshot; try history
			}
			v := e.arena.LoadAtomic(addr)
			if o.lock.Load() == l { // seqlock recheck: value belongs to version<=S
				words[a] = v
				ok = true
				break
			}
		}
		if !ok && ps.hist != nil {
			if v, found := ps.hist.ReadAt(uint64(addr), s); found {
				words[a] = v
				ok = true
			}
		}
		if !ok {
			return nil, false
		}
	}
	return e.fillCheckpoint(h0, s, nextBlock, blockSite, words), true
}

// checkpointImageSTW copies the heap under the quiescence gate: no
// transaction is in flight, so every published record (seq <= horizon)
// is fully applied to memory and the plain copy is the exact state at
// the gate.
func (e *Engine) checkpointImageSTW(log *wal.Log) *wal.Checkpoint {
	var cp *wal.Checkpoint
	e.quiesce(func() {
		nextBlock, blockSite := e.arena.SnapshotBlocks()
		nWords := nextBlock << e.blockShift
		words := make([]uint64, nWords)
		for a := uint64(0); a < nWords; a++ {
			words[a] = e.arena.LoadAtomic(memory.Addr(a))
		}
		cp = e.fillCheckpoint(log.SeqHorizon(), e.Clock(), nextBlock, blockSite, words)
	})
	return cp
}

func (e *Engine) fillCheckpoint(lastSeq, clk, nextBlock uint64, blockSite []memory.SiteID, words []uint64) *wal.Checkpoint {
	// Site names are sampled after the block table: registration precedes
	// use, so every site id in the table has its name present.
	names := e.arena.Sites().Names()
	bs := make([]uint32, len(blockSite))
	for i, sid := range blockSite {
		bs[i] = uint32(sid)
	}
	return &wal.Checkpoint{
		LastSeq:    lastSeq,
		Clock:      clk,
		BlockShift: uint32(e.blockShift),
		NextBlock:  nextBlock,
		Sites:      names,
		BlockSite:  bs,
		Words:      words,
	}
}
