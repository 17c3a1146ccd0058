// Package mem models the physical-memory substrate of a tiered-memory
// machine: logical 4 KB pages with kernel-style flags, NUMA nodes with
// capacity and free-page accounting, and the zone watermarks that drive
// reclaim — including TPP's decoupled allocation and demotion watermarks
// (§5.2 of the paper).
//
// A deliberate simplification (documented in DESIGN.md): migration moves a
// logical page between nodes instead of copying data between physical
// frames, so a page's PFN is stable for its lifetime and capacity
// accounting is by resident-page counts. This preserves everything the
// placement algorithms observe.
//
// The page store is the simulator's largest per-page structure and every
// simulated access reads it, so a Page is kept to 16 bytes, four to a
// 64-byte cache line: one byte each for Type, Flags, Node and Home, then
// the two PFN-valued LRU links and the AutoTiering epoch counter. Flags
// is a byte holding seven flags, so one bit is free. (The NUMA hint, the
// scan's PTE poisoning, is not a page flag: it lives in the page table.)
package mem

import (
	"fmt"
	"math/bits"
	"unsafe"
)

// PageSize is the size of a base page in bytes. TPP is page-size agnostic;
// the simulator uses 4 KB throughout.
const PageSize = 4096

// PFN identifies a logical page for its whole lifetime. In huge-page
// mode (tier.Spec.HugePages) a PFN instead identifies one 2 MB frame of
// HugeFramePages base pages — the Store, LRU lists, and reverse map all
// shrink by that factor while node capacity stays in base pages.
type PFN uint32

// NilPFN is the sentinel "no page" value.
const NilPFN PFN = ^PFN(0)

// HugeFrameShift is log2 of the base pages per 2 MB huge frame
// (2 MB / 4 KB = 512 = 1<<9).
const HugeFrameShift = 9

// HugeFramePages is the number of base pages in one 2 MB huge frame.
const HugeFramePages = 1 << HugeFrameShift

// PageType classifies a page the way the placement policy cares about
// (§3.3, §5.4): anonymous memory (stack/heap/mmap), file-backed page cache,
// and tmpfs (in-memory files; Cache workloads use these for fast lookup).
type PageType uint8

const (
	Anon PageType = iota
	File
	Tmpfs
	numPageTypes
)

// NumPageTypes is the number of distinct page types.
const NumPageTypes = int(numPageTypes)

// String returns the lowercase name of the page type.
func (t PageType) String() string {
	switch t {
	case Anon:
		return "anon"
	case File:
		return "file"
	case Tmpfs:
		return "tmpfs"
	}
	return fmt.Sprintf("pagetype(%d)", uint8(t))
}

// IsFileLike reports whether the page belongs to the file LRU (file and
// tmpfs pages share the file LRU in Linux).
func (t PageType) IsFileLike() bool { return t == File || t == Tmpfs }

// LRUClass returns which of the two LRU pairs (anon vs file) the type
// belongs to: 0 for anon, 1 for file-like.
func (t PageType) LRUClass() int {
	if t.IsFileLike() {
		return 1
	}
	return 0
}

// Flags is the per-page flag byte. The names mirror the kernel's page
// flags; PGDemoted is the flag TPP adds to detect demotion/promotion
// ping-pong (§5.5). Seven of the eight bits are in use.
type Flags uint8

const (
	// PGActive: the page is on (or belongs on) the active LRU list.
	PGActive Flags = 1 << iota
	// PGReferenced: the hardware accessed bit; set on access, consumed by
	// the LRU scan to grant a second chance.
	PGReferenced
	// PGDirty: the page must be written back before it can be dropped.
	PGDirty
	// PGUnevictable: the page may never be reclaimed or demoted (pinned
	// huge-page pools, kernel text, ...).
	PGUnevictable
	// PGIsolated: the page has been taken off its LRU list for migration.
	PGIsolated
	// PGDemoted: set when TPP demotes the page, cleared on promotion.
	// A promotion of a PGDemoted page is counted as ping-pong traffic.
	PGDemoted
	// PGOnLRU: bookkeeping bit — the page is currently linked on an LRU
	// list. Maintained by the lru package.
	PGOnLRU
)

// Has reports whether all bits in mask are set.
func (f Flags) Has(mask Flags) bool { return f&mask == mask }

// Set returns f with the bits in mask set.
func (f Flags) Set(mask Flags) Flags { return f | mask }

// Clear returns f with the bits in mask cleared.
func (f Flags) Clear(mask Flags) Flags { return f &^ mask }

// Page is one logical 4 KB page. Pages are stored in a flat slice indexed
// by PFN; the LRU links are intrusive (PFN-valued) to avoid per-node
// container allocations on the hot path.
//
// A Page is 16 bytes (see the package doc), pinned by TestPageIs16Bytes:
// a new field must first move an existing one out. Splitting the record
// into a hot byte array plus parallel link arrays was measured slower,
// because LRU updates then touch two random cache lines instead of one.
type Page struct {
	Type  PageType
	Flags Flags
	// Node is the memory node the page currently resides on.
	Node NodeID
	// Home is the CPU node whose cores access this page (the socket its
	// owning region is placed on). Accesses pay the distance-derived
	// latency from Home to Node, so a cross-socket DRAM hit on a
	// dual-socket machine costs more than a near hit. Migration changes
	// Node, never Home. Always 0 on single-socket machines.
	Home NodeID
	// Prev/Next are the intrusive LRU links, maintained by package lru.
	Prev, Next PFN
	// AccessEpoch counts accesses within the current AutoTiering epoch;
	// the AutoTiering baseline ranks pages by it (§6.3).
	AccessEpoch uint32
}

// Store owns every page in the machine. PFNs are allocated densely and
// recycled through a free list when pages are unmapped.
//
// The store is the only writer of Page.Node: Alloc places a new page,
// Move places an existing one, Free takes it off every node. Each Move
// is reported to the move observer, if one is installed. Because every
// placement passes through it, the store also counts each node's live
// pages by the trailing zeros of their PFNs (LiveAligned).
type Store struct {
	pages []Page
	free  []PFN
	moved func(pfn PFN, node NodeID)
	// live[n][k] counts the live pages on node n whose PFN has exactly
	// k trailing zeros (PFN 0 in class 32).
	live [][pfnClasses]uint64
}

// pfnClasses is the number of trailing-zero classes of a 32-bit PFN:
// 0 through 31, and 32 for PFN 0.
const pfnClasses = 33

// NewStore returns an empty store with capacity hint n pages.
func NewStore(n int) *Store {
	return &Store{pages: make([]Page, 0, n)}
}

// SetMoveObserver installs fn as the one observer told about every live
// page Move places on a new node (nil removes it).
func (s *Store) SetMoveObserver(fn func(pfn PFN, node NodeID)) { s.moved = fn }

// Alloc creates a new page of the given type on the given node and returns
// its PFN. The page starts with empty flags and nil LRU links.
func (s *Store) Alloc(t PageType, node NodeID) PFN {
	var pfn PFN
	if n := len(s.free); n > 0 {
		pfn = s.free[n-1]
		s.free = s.free[:n-1]
		s.pages[pfn] = Page{Type: t, Node: node, Prev: NilPFN, Next: NilPFN}
	} else {
		pfn = PFN(len(s.pages))
		s.pages = append(s.pages, Page{Type: t, Node: node, Prev: NilPFN, Next: NilPFN})
	}
	s.count(node, pfn, 1)
	return pfn
}

// count adds d (1, or ^0 to subtract one) to node's live pages in pfn's
// trailing-zero class.
func (s *Store) count(node NodeID, pfn PFN, d uint64) {
	if int(node) >= len(s.live) {
		s.live = append(s.live, make([][pfnClasses]uint64, int(node)+1-len(s.live))...)
	}
	s.live[node][bits.TrailingZeros32(uint32(pfn))] += d
}

// LiveAligned returns the number of live pages on node whose PFN is a
// multiple of 1<<shift: at shift 0, all of the node's live pages. A
// scan that checks every granule of 1<<shift PFNs and charges each to
// the node holding its first PFN makes this many checks on node.
func (s *Store) LiveAligned(node NodeID, shift uint) uint64 {
	if int(node) >= len(s.live) {
		return 0
	}
	var n uint64
	for _, c := range s.live[node][min(shift, pfnClasses-1):] {
		n += c
	}
	return n
}

// Move places the live page pfn on node. Migration calls it once the
// page's residency has moved; the page keeps its PFN.
func (s *Store) Move(pfn PFN, node NodeID) {
	s.count(s.pages[pfn].Node, pfn, ^uint64(0))
	s.count(node, pfn, 1)
	s.pages[pfn].Node = node
	if s.moved != nil {
		s.moved(pfn, node)
	}
}

// Free returns a page to the store. The caller must have already unlinked
// it from any LRU list and released its node residency.
func (s *Store) Free(pfn PFN) {
	if s.pages[pfn].Flags.Has(PGOnLRU) {
		panic("mem: freeing page still on LRU")
	}
	s.count(s.pages[pfn].Node, pfn, ^uint64(0))
	s.pages[pfn].Node = NilNode
	s.free = append(s.free, pfn)
}

// Page returns a mutable pointer to the page with the given PFN.
func (s *Store) Page(pfn PFN) *Page { return &s.pages[pfn] }

// Len returns the number of PFNs ever allocated (live + freed).
func (s *Store) Len() int { return len(s.pages) }

// Live returns the number of currently allocated pages.
func (s *Store) Live() int { return len(s.pages) - len(s.free) }

// FootprintBytes returns the store's resident simulator memory: the page
// array plus the free list, counted at capacity (what the process
// actually holds, not just what is in use).
func (s *Store) FootprintBytes() uint64 {
	return uint64(cap(s.pages))*uint64(unsafe.Sizeof(Page{})) +
		uint64(cap(s.free))*uint64(unsafe.Sizeof(PFN(0)))
}
