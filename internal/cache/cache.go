// Package cache implements the memory hierarchy substrate of Table 1:
// set-associative LRU caches composed into an L1I/L1D/L2/memory hierarchy
// with fixed access latencies. Caches are BIST-with-repair territory in the
// paper, so they carry no degraded modes; they exist to give loads and
// stores realistic latency distributions.
package cache

// Config describes one cache level.
type Config struct {
	SizeBytes int
	Assoc     int
	BlockSize int
	Latency   int // access latency in cycles (hit)
}

// Cache is a single set-associative, write-allocate, LRU cache. Tags,
// valid bits and LRU stamps live in one flat array each, way-major within
// a set (set s, way w at s*Assoc+w), so building a cache is three
// allocations whatever its size.
type Cache struct {
	cfg  Config
	sets int
	tag  []uint64
	val  []bool
	lru  []uint32
	tick uint32

	Accesses, Misses int64
}

// New builds a cache from a configuration.
func New(cfg Config) *Cache {
	sets := cfg.SizeBytes / (cfg.Assoc * cfg.BlockSize)
	if sets < 1 {
		sets = 1
	}
	n := sets * cfg.Assoc
	return &Cache{
		cfg:  cfg,
		sets: sets,
		tag:  make([]uint64, n),
		val:  make([]bool, n),
		lru:  make([]uint32, n),
	}
}

// Latency returns the hit latency.
func (c *Cache) Latency() int { return c.cfg.Latency }

// Access looks up addr, allocating on miss. Returns true on hit.
func (c *Cache) Access(addr uint64) bool {
	c.Accesses++
	c.tick++
	block := addr / uint64(c.cfg.BlockSize)
	set := int(block % uint64(c.sets))
	tag := block / uint64(c.sets)
	lo := set * c.cfg.Assoc
	val, tags, lru := c.val[lo:lo+c.cfg.Assoc], c.tag[lo:lo+c.cfg.Assoc], c.lru[lo:lo+c.cfg.Assoc]
	for w := range val {
		if val[w] && tags[w] == tag {
			lru[w] = c.tick
			return true
		}
	}
	c.Misses++
	// LRU replace
	victim := 0
	oldest := lru[0]
	for w := 1; w < len(val); w++ {
		if !val[w] {
			victim = w
			break
		}
		if lru[w] < oldest {
			oldest = lru[w]
			victim = w
		}
	}
	val[victim] = true
	tags[victim] = tag
	lru[victim] = c.tick
	return false
}

// MissRate reports the observed miss rate.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// Hierarchy is the two-level hierarchy + memory of Table 1.
type Hierarchy struct {
	L1I, L1D, L2 *Cache
	MemLatency   int
}

// HierarchyConfig parameterizes NewHierarchy.
type HierarchyConfig struct {
	L1I, L1D, L2 Config
	MemLatency   int
}

// DefaultHierarchy returns Table 1's memory system: 64KB 2-way 32B-block
// 2-cycle L1s, 2MB 8-way 64B-block 15-cycle L2, 250-cycle memory.
func DefaultHierarchy() HierarchyConfig {
	return HierarchyConfig{
		L1I:        Config{SizeBytes: 64 << 10, Assoc: 2, BlockSize: 32, Latency: 2},
		L1D:        Config{SizeBytes: 64 << 10, Assoc: 2, BlockSize: 32, Latency: 2},
		L2:         Config{SizeBytes: 2 << 20, Assoc: 8, BlockSize: 64, Latency: 15},
		MemLatency: 250,
	}
}

// NewHierarchy builds the hierarchy.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{
		L1I:        New(cfg.L1I),
		L1D:        New(cfg.L1D),
		L2:         New(cfg.L2),
		MemLatency: cfg.MemLatency,
	}
}

// LoadLatency returns the latency of a data access at addr and whether it
// hit in the L1 (the signal the issue logic speculates on).
func (h *Hierarchy) LoadLatency(addr uint64) (lat int, l1hit bool) {
	if h.L1D.Access(addr) {
		return h.L1D.Latency(), true
	}
	if h.L2.Access(addr) {
		return h.L1D.Latency() + h.L2.Latency(), false
	}
	return h.L1D.Latency() + h.L2.Latency() + h.MemLatency, false
}

// FetchLatency returns the latency of an instruction fetch at addr.
func (h *Hierarchy) FetchLatency(addr uint64) int {
	if h.L1I.Access(addr) {
		return h.L1I.Latency()
	}
	if h.L2.Access(addr) {
		return h.L1I.Latency() + h.L2.Latency()
	}
	return h.L1I.Latency() + h.L2.Latency() + h.MemLatency
}
