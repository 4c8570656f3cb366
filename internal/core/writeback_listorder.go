package core

func init() {
	RegisterWritebackPolicy(DefaultWritebackPolicyName, func() WritebackPolicy {
		return &listOrderWriteback{}
	})
}

// listOrderWriteback is the paper's implicit writeback order, preserved
// bit-identically: the front dirty block of the replacement policy's lists,
// lists in scan order (for the default LRU: least recently used dirty block,
// inactive list before active list — §III.A.3). It keeps no order of its
// own; the per-list, per-domain dirty segments the Manager maintains for
// every policy already are this order, so selection is an O(lists) front
// peek. Expiry selection uses the Manager's marked-expired prefix
// (markExpired): a segment whose marked count is zero holds no expired
// block and is skipped unwalked, so a flusher pass never walks a list's
// unexpired dirty blocks to reach the next list's expired ones. On a
// per-device manager each domain gets its own instance, bound via
// BindDomain, selecting only from that domain's segments.
type listOrderWriteback struct {
	dom int
	// visited counts dirty-segment blocks NextExpired stepped over or
	// returned — the scan-work probe of the expiry tests.
	visited int64
}

func (*listOrderWriteback) Name() string                       { return DefaultWritebackPolicyName }
func (*listOrderWriteback) NoteDirty(*Manager, *Block, *Block) {}
func (*listOrderWriteback) NoteClean(*Manager, *Block)         {}
func (*listOrderWriteback) NoteFlushed(*Manager, *Block)       {}
func (w *listOrderWriteback) BindDomain(dom int)               { w.dom = dom }

// NextDirty returns the domain's first dirty block in list scan order: the
// dirty segments' front blocks, lists first to last. O(lists).
func (w *listOrderWriteback) NextDirty(m *Manager) *Block {
	for _, l := range m.pol.Lists() {
		if b := l.FrontDirtyDomain(w.dom); b != nil {
			return b
		}
	}
	return nil
}

// NextExpired returns the domain's first expired dirty block in list scan
// order. markExpired first brings the domain's marked-expired prefix up to
// now — O(1) when nothing is expired, amortized O(1) per dirty block
// otherwise — and makes the marked blocks exactly the expired ones; the
// query then skips every segment with no marked block and walks the first
// one that has some only up to its first marked block: O(lists) plus that
// walk.
func (w *listOrderWriteback) NextExpired(m *Manager, now float64) *Block {
	if !m.markExpired(w.dom, now) {
		return nil
	}
	for _, l := range m.pol.Lists() {
		if l.expiredIn(w.dom) == 0 {
			continue
		}
		for b := l.FrontDirtyDomain(w.dom); b != nil; b = b.dnext {
			w.visited++
			if b.expired {
				return b
			}
		}
	}
	return nil
}

// CheckInvariants: the order is the dirty segments', which the Manager
// already verifies block by block.
func (*listOrderWriteback) CheckInvariants(*Manager) error { return nil }
