// Package sampling implements the edge-sampling machinery of KnightKing
// (§3–4 of the paper): the two classic static samplers — alias tables and
// inverse transform sampling (ITS) — plus the rejection sampler that makes
// exact dynamic (walker-dependent) sampling O(1) expected time, with the
// paper's outlier-folding and lower-bound pre-acceptance optimizations.
package sampling

import (
	"fmt"
	"math"
	"sync"

	"knightking/internal/rng"
)

// StaticSampler draws an index in [0, N()) with probability proportional to
// its static weight Ps. Implementations are immutable after construction
// and safe for concurrent Sample calls with distinct Rands.
type StaticSampler interface {
	// Sample returns an index distributed proportionally to weights.
	Sample(r *rng.Rand) int
	// N returns the number of items.
	N() int
	// Total returns the sum of weights (ΣPs).
	Total() float64
	// WeightAt returns the weight of item i.
	WeightAt(i int) float64
}

// Uniform samples uniformly over n items (Ps ≡ 1), the static sampler for
// unweighted graphs.
type Uniform struct {
	n int
}

// NewUniform returns a uniform sampler over n items. n must be positive.
func NewUniform(n int) *Uniform {
	if n <= 0 {
		panic(fmt.Sprintf("sampling: NewUniform(%d)", n))
	}
	return &Uniform{n: n}
}

// uniformCache backs SharedUniform: Uniform is immutable and parameterized
// only by n, so one instance per item count serves every caller.
var uniformCache struct {
	mu sync.Mutex
	by []*Uniform
}

// SharedUniform returns a process-shared uniform sampler over n items,
// equivalent to NewUniform(n) but served from a cache so that building
// per-vertex sampler tables for an unweighted graph allocates nothing per
// vertex. Safe for concurrent use; n must be positive.
func SharedUniform(n int) *Uniform {
	if n <= 0 {
		panic(fmt.Sprintf("sampling: SharedUniform(%d)", n))
	}
	uniformCache.mu.Lock()
	defer uniformCache.mu.Unlock()
	if n >= len(uniformCache.by) {
		grown := make([]*Uniform, n+1)
		copy(grown, uniformCache.by)
		uniformCache.by = grown
	}
	u := uniformCache.by[n]
	if u == nil {
		u = &Uniform{n: n}
		uniformCache.by[n] = u
	}
	return u
}

// Sample returns a uniform index in [0, n).
//
//kk:hotpath
func (u *Uniform) Sample(r *rng.Rand) int { return r.Intn(u.n) }

// N returns the item count.
func (u *Uniform) N() int { return u.n }

// Total returns n (each item has weight 1).
func (u *Uniform) Total() float64 { return float64(u.n) }

// WeightAt returns 1 for every item.
func (u *Uniform) WeightAt(int) float64 { return 1 }

// Alias is a Walker/Vose alias table: O(n) construction, O(1) sampling.
// This is KnightKing's default static solution (§3, Figure 1b).
//
// The table is one []AliasCell, so a draw reads a single 16-byte cell.
// The cells may live in a slab shared by many tables (see AliasBuilder).
type Alias struct {
	cells []AliasCell
	total float64
}

// AliasCell is one bucket of an alias table: the acceptance threshold of
// the bucket's own item, the fallback item, and the bucket item's weight.
// Weights start as float32 everywhere in the engine, so keeping them at
// that width is exact and the cell packs into 16 bytes.
type AliasCell struct {
	prob   float64
	alias  int32
	weight float32
}

// AliasBuilder builds alias tables into caller-provided cells, reusing
// its construction scratch across tables. A zero AliasBuilder is ready to
// use; it is not safe for concurrent use.
type AliasBuilder struct {
	scaled       []float64
	small, large []int32
}

// NewAlias builds an alias table over the given non-negative weights. At
// least one weight must be positive.
func NewAlias(weights []float32) (*Alias, error) {
	a := &Alias{}
	var b AliasBuilder
	if err := b.Build(a, make([]AliasCell, len(weights)), weights); err != nil {
		return nil, err
	}
	return a, nil
}

// Build makes a an alias table over the given non-negative weights, at
// least one of them positive, stored in cells, which must have exactly
// len(weights) entries and which a keeps. The table equals
// NewAlias(weights).
func (b *AliasBuilder) Build(a *Alias, cells []AliasCell, weights []float32) error {
	n := len(weights)
	if n == 0 {
		return fmt.Errorf("sampling: alias table over zero items")
	}
	if len(cells) != n {
		return fmt.Errorf("sampling: alias table over %d items given %d cells", n, len(cells))
	}
	total := 0.0
	for i, x := range weights {
		if x < 0 || math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return fmt.Errorf("sampling: invalid weight %v at %d", x, i)
		}
		cells[i].weight = x
		total += float64(x)
	}
	if !(total > 0) {
		return fmt.Errorf("sampling: weights sum to %v", total)
	}

	// Scaled weights: mean 1 per bucket.
	scaled := growFloat64(b.scaled, n)
	for i, x := range weights {
		scaled[i] = float64(x) * float64(n) / total
	}
	small, large := b.small[:0], b.large[:0]
	for i := n - 1; i >= 0; i-- {
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		cells[s].prob = scaled[s]
		cells[s].alias = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, l := range large {
		cells[l].prob = 1
		cells[l].alias = l
	}
	for _, s := range small { // numeric residue; should be ~1 already
		cells[s].prob = 1
		cells[s].alias = s
	}
	b.scaled, b.small, b.large = scaled, small, large
	a.cells, a.total = cells, total
	return nil
}

// growFloat64 returns s resized to n, reallocating only when its capacity
// is short.
func growFloat64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Sample draws an index in O(1): pick a bucket uniformly, then the bucket's
// primary item with probability prob, else its alias.
//
//kk:hotpath
func (a *Alias) Sample(r *rng.Rand) int {
	b := r.Intn(len(a.cells))
	c := &a.cells[b]
	if r.Float64() < c.prob {
		return b
	}
	return int(c.alias)
}

// N returns the item count.
func (a *Alias) N() int { return len(a.cells) }

// Total returns ΣPs.
func (a *Alias) Total() float64 { return a.total }

// WeightAt returns the weight of item i.
func (a *Alias) WeightAt(i int) float64 { return float64(a.cells[i].weight) }

// ITS is an inverse-transform sampler: a CDF array with binary search,
// O(n) construction, O(log n) sampling (§3, Figure 1a). KnightKing uses
// alias by default; ITS exists for the baseline engine and comparisons.
type ITS struct {
	cdf     []float64 // cdf[i] = sum of weights[0..i]
	weights []float64
}

// NewITS builds a CDF sampler over the given non-negative weights. At
// least one weight must be positive.
func NewITS(weights []float32) (*ITS, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("sampling: ITS over zero items")
	}
	cdf := make([]float64, n)
	w := make([]float64, n)
	sum := 0.0
	for i, x := range weights {
		if x < 0 || math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return nil, fmt.Errorf("sampling: invalid weight %v at %d", x, i)
		}
		w[i] = float64(x)
		sum += float64(x)
		cdf[i] = sum
	}
	if !(sum > 0) {
		return nil, fmt.Errorf("sampling: weights sum to %v", sum)
	}
	return &ITS{cdf: cdf, weights: w}, nil
}

// NewITSFromFloat64 builds a CDF sampler from float64 weights; used where
// the baseline recomputes dynamic products per step.
func NewITSFromFloat64(weights []float64) (*ITS, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("sampling: ITS over zero items")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i, x := range weights {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("sampling: invalid weight %v at %d", x, i)
		}
		sum += x
		cdf[i] = sum
	}
	if !(sum > 0) {
		return nil, fmt.Errorf("sampling: weights sum to %v", sum)
	}
	return &ITS{cdf: cdf, weights: weights}, nil
}

// ResetFloat64 rebuilds s in place over float64 weights, reusing the CDF
// backing array: sampling behavior is identical to a fresh
// NewITSFromFloat64, with no allocation once capacity is warm. The weights
// slice is retained until the next Reset, so callers reusing a scratch
// slice must finish sampling before overwriting it.
//
//kk:hotpath
func (s *ITS) ResetFloat64(weights []float64) error {
	n := len(weights)
	if n == 0 {
		return fmt.Errorf("sampling: ITS over zero items") //kk:alloc-ok error path: invalid input aborts the step, never steady state
	}
	cdf := s.cdf[:0]
	sum := 0.0
	for i, x := range weights {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("sampling: invalid weight %v at %d", x, i) //kk:alloc-ok error path: invalid input aborts the step, never steady state
		}
		sum += x
		cdf = append(cdf, sum)
	}
	if !(sum > 0) {
		return fmt.Errorf("sampling: weights sum to %v", sum) //kk:alloc-ok error path: invalid input aborts the step, never steady state
	}
	s.cdf = cdf
	s.weights = weights
	return nil
}

// Sample draws x in [0, total) and returns the smallest i with cdf[i] > x,
// so item i is selected with probability weights[i]/total and zero-weight
// items are never selected. The binary search is hand-rolled: sort.Search
// would allocate a capturing closure on every draw.
//
//kk:hotpath
func (s *ITS) Sample(r *rng.Rand) int {
	x := r.Float64() * s.cdf[len(s.cdf)-1]
	lo, hi := 0, len(s.cdf)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.cdf[mid] > x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// N returns the item count.
func (s *ITS) N() int { return len(s.cdf) }

// Total returns ΣPs.
func (s *ITS) Total() float64 { return s.cdf[len(s.cdf)-1] }

// WeightAt returns the weight of item i.
func (s *ITS) WeightAt(i int) float64 { return s.weights[i] }
