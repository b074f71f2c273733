package sampling

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"knightking/internal/rng"
)

// empirical draws n samples and returns normalized frequencies.
func empirical(t *testing.T, s StaticSampler, r *rng.Rand, draws int) []float64 {
	t.Helper()
	counts := make([]float64, s.N())
	for i := 0; i < draws; i++ {
		idx := s.Sample(r)
		if idx < 0 || idx >= s.N() {
			t.Fatalf("sample index %d out of range [0,%d)", idx, s.N())
		}
		counts[idx]++
	}
	for i := range counts {
		counts[i] /= float64(draws)
	}
	return counts
}

// assertMatchesWeights checks empirical frequencies against normalized
// weights with a tolerance suited to the draw count.
func assertMatchesWeights(t *testing.T, s StaticSampler, freqs []float64, tol float64) {
	t.Helper()
	total := s.Total()
	for i, f := range freqs {
		want := s.WeightAt(i) / total
		if math.Abs(f-want) > tol {
			t.Fatalf("item %d: frequency %v, want %v (±%v)", i, f, want, tol)
		}
	}
}

func TestUniformDistribution(t *testing.T) {
	u := NewUniform(7)
	freqs := empirical(t, u, rng.New(1), 70000)
	assertMatchesWeights(t, u, freqs, 0.01)
}

func TestUniformPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewUniform(0) did not panic")
		}
	}()
	NewUniform(0)
}

func TestAliasDistribution(t *testing.T) {
	weights := []float32{1, 2, 3, 4}
	a, err := NewAlias(weights)
	if err != nil {
		t.Fatal(err)
	}
	if a.Total() != 10 {
		t.Fatalf("Total = %v", a.Total())
	}
	freqs := empirical(t, a, rng.New(2), 200000)
	assertMatchesWeights(t, a, freqs, 0.01)
}

func TestAliasZeroWeightNeverSampled(t *testing.T) {
	a, err := NewAlias([]float32{0, 1, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	for i := 0; i < 100000; i++ {
		idx := a.Sample(r)
		if idx == 0 || idx == 2 {
			t.Fatalf("zero-weight item %d sampled", idx)
		}
	}
}

func TestAliasSingleItem(t *testing.T) {
	a, err := NewAlias([]float32{5})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(4)
	for i := 0; i < 100; i++ {
		if a.Sample(r) != 0 {
			t.Fatal("single-item alias sampled nonzero index")
		}
	}
}

func TestAliasExtremeSkew(t *testing.T) {
	weights := make([]float32, 1000)
	for i := range weights {
		weights[i] = 0.001
	}
	weights[500] = 1000
	a, err := NewAlias(weights)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	hot := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if a.Sample(r) == 500 {
			hot++
		}
	}
	want := 1000.0 / (1000.0 + 0.999)
	got := float64(hot) / draws
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("hot item frequency %v, want %v", got, want)
	}
}

func TestAliasErrors(t *testing.T) {
	if _, err := NewAlias(nil); err == nil {
		t.Fatal("empty weights accepted")
	}
	if _, err := NewAlias([]float32{0, 0}); err == nil {
		t.Fatal("all-zero weights accepted")
	}
	if _, err := NewAlias([]float32{1, -1}); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestITSDistribution(t *testing.T) {
	weights := []float32{4, 0, 1, 5}
	s, err := NewITS(weights)
	if err != nil {
		t.Fatal(err)
	}
	freqs := empirical(t, s, rng.New(6), 200000)
	assertMatchesWeights(t, s, freqs, 0.01)
	if freqs[1] != 0 {
		t.Fatal("zero-weight item sampled by ITS")
	}
}

func TestITSFromFloat64(t *testing.T) {
	s, err := NewITSFromFloat64([]float64{2, 2, 6})
	if err != nil {
		t.Fatal(err)
	}
	if s.Total() != 10 || s.N() != 3 || s.WeightAt(2) != 6 {
		t.Fatalf("accessors wrong: total=%v n=%d w2=%v", s.Total(), s.N(), s.WeightAt(2))
	}
	freqs := empirical(t, s, rng.New(7), 100000)
	assertMatchesWeights(t, s, freqs, 0.01)
}

func TestITSErrors(t *testing.T) {
	if _, err := NewITS(nil); err == nil {
		t.Fatal("empty weights accepted")
	}
	if _, err := NewITSFromFloat64([]float64{0}); err == nil {
		t.Fatal("all-zero weights accepted")
	}
	if _, err := NewITSFromFloat64([]float64{-2}); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestAliasAndITSAgreeQuick(t *testing.T) {
	// Property: alias and ITS over the same weights produce statistically
	// matching distributions. Checked via mean absolute deviation on
	// random weight vectors.
	r := rng.New(8)
	f := func(seed uint64) bool {
		wr := rng.New(seed)
		n := 2 + wr.Intn(20)
		weights := make([]float32, n)
		for i := range weights {
			weights[i] = float32(wr.Range(0, 4))
		}
		weights[wr.Intn(n)] = 1 // ensure positive total
		alias, err := NewAlias(weights)
		if err != nil {
			return false
		}
		its, err := NewITS(weights)
		if err != nil {
			return false
		}
		const draws = 20000
		ca := make([]float64, n)
		ci := make([]float64, n)
		for i := 0; i < draws; i++ {
			ca[alias.Sample(r)]++
			ci[its.Sample(r)]++
		}
		for i := 0; i < n; i++ {
			if math.Abs(ca[i]-ci[i])/draws > 0.03 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// referenceAlias is the textbook Vose construction the alias table has
// always used, kept in separate arrays: the slab builder must reproduce it
// bit for bit, or walks drawn from alias tables would change.
func referenceAlias(weights []float32) (prob []float64, alias []int32, total float64) {
	n := len(weights)
	for _, x := range weights {
		total += float64(x)
	}
	prob, alias = make([]float64, n), make([]int32, n)
	scaled := make([]float64, n)
	for i, x := range weights {
		scaled[i] = float64(x) * float64(n) / total
	}
	var small, large []int32
	for i := n - 1; i >= 0; i-- {
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s, l := small[len(small)-1], large[len(large)-1]
		small, large = small[:len(small)-1], large[:len(large)-1]
		prob[s], alias[s] = scaled[s], l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, l := range large {
		prob[l], alias[l] = 1, l
	}
	for _, s := range small {
		prob[s], alias[s] = 1, s
	}
	return prob, alias, total
}

// TestAliasBuilderSlabMatchesReference builds many tables of varying size
// into one cell slab with one reused builder and checks every cell against
// the reference construction, then checks draws against NewAlias.
func TestAliasBuilderSlabMatchesReference(t *testing.T) {
	if size := unsafe.Sizeof(AliasCell{}); size != 16 {
		t.Fatalf("AliasCell is %d bytes, want 16", size)
	}
	wr := rng.New(31)
	var tables [][]float32
	edges := 0
	for k := 0; k < 300; k++ {
		n := 1 + wr.Intn(1+k)
		w := make([]float32, n)
		for i := range w {
			w[i] = float32(wr.Range(0, 9))
			if wr.Intn(5) == 0 {
				w[i] = 0
			}
		}
		w[wr.Intn(n)] = 2 // ensure a positive total
		tables = append(tables, w)
		edges += n
	}
	headers := make([]Alias, len(tables))
	cells := make([]AliasCell, edges)
	var b AliasBuilder
	for k, w := range tables {
		if err := b.Build(&headers[k], cells[:len(w)], w); err != nil {
			t.Fatal(err)
		}
		cells = cells[len(w):]
	}
	for k, w := range tables {
		a := &headers[k]
		prob, alias, total := referenceAlias(w)
		if a.N() != len(w) || a.Total() != total {
			t.Fatalf("table %d: N %d total %v, want %d %v", k, a.N(), a.Total(), len(w), total)
		}
		for i := range w {
			c := a.cells[i]
			if c.prob != prob[i] || c.alias != alias[i] || a.WeightAt(i) != float64(w[i]) {
				t.Fatalf("table %d cell %d: {%v %d %v}, want {%v %d %v}",
					k, i, c.prob, c.alias, a.WeightAt(i), prob[i], alias[i], w[i])
			}
		}
		fresh, err := NewAlias(w)
		if err != nil {
			t.Fatal(err)
		}
		r1, r2 := rng.New(uint64(k)), rng.New(uint64(k))
		for d := 0; d < 50; d++ {
			if x, y := a.Sample(r1), fresh.Sample(r2); x != y {
				t.Fatalf("table %d draw %d: slab %d, NewAlias %d", k, d, x, y)
			}
		}
	}
	if err := b.Build(&Alias{}, make([]AliasCell, 2), []float32{1, 2, 3}); err == nil {
		t.Fatal("Build accepted a cell slice of the wrong length")
	}
}

func BenchmarkAliasSample(b *testing.B) {
	weights := make([]float32, 1024)
	for i := range weights {
		weights[i] = float32(i%7) + 1
	}
	a, _ := NewAlias(weights)
	r := rng.New(1)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += a.Sample(r)
	}
	_ = sink
}

func BenchmarkITSSample(b *testing.B) {
	weights := make([]float32, 1024)
	for i := range weights {
		weights[i] = float32(i%7) + 1
	}
	s, _ := NewITS(weights)
	r := rng.New(1)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += s.Sample(r)
	}
	_ = sink
}

func TestInvalidWeightValuesRejected(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	for _, bad := range [][]float32{{1, nan}, {inf, 1}, {nan}} {
		if _, err := NewAlias(bad); err == nil {
			t.Fatalf("alias accepted %v", bad)
		}
		if _, err := NewITS(bad); err == nil {
			t.Fatalf("ITS accepted %v", bad)
		}
	}
	if _, err := NewITSFromFloat64([]float64{math.NaN()}); err == nil {
		t.Fatal("ITSFromFloat64 accepted NaN")
	}
}
