// Package addrgen generates synthetic memory address streams. It stands in
// for the address streams that PEBIL instrumentation would extract from a
// real executable: each generator models the access pattern of one kind of
// computational kernel (unit-stride sweeps, strided sweeps, random gathers,
// 3D stencils) over a working set whose size is the quantity that changes
// under strong scaling, and Mix and Biased compose them into kernels such as
// particle gather/scatter.
//
// Generators are deterministic: the same construction parameters produce the
// same stream, which keeps every experiment in the repository reproducible.
package addrgen

import (
	"fmt"
	"math"
	"math/rand"
)

// Generator produces an infinite, deterministic address stream.
type Generator interface {
	// Name identifies the pattern for reports and trace metadata.
	Name() string
	// Next returns the next address in the stream.
	Next() uint64
	// Reset rewinds the stream to its initial state.
	Reset()
	// WorkingSet returns the number of distinct bytes the stream touches.
	WorkingSet() uint64
}

// BatchGenerator is implemented by generators that can fill a slab of
// addresses in one call, amortizing the per-reference interface dispatch of
// Next across a whole batch. NextBatch must produce exactly the stream that
// len(dst) consecutive Next calls would, advancing the generator state
// identically — batching is an execution detail, never a semantic one.
type BatchGenerator interface {
	Generator
	// NextBatch fills dst entirely with the next len(dst) addresses.
	NextBatch(dst []uint64)
}

// FillBatch fills dst entirely with the next len(dst) addresses from g,
// using the generator's NextBatch fast path when it has one and falling
// back to repeated Next calls otherwise. Both paths yield the same stream.
func FillBatch(g Generator, dst []uint64) {
	if b, ok := g.(BatchGenerator); ok {
		b.NextBatch(dst)
		return
	}
	for i := range dst {
		dst[i] = g.Next()
	}
}

// Stride sweeps a working set with a fixed byte stride, wrapping at the end.
// Stride 8 with 8-byte elements is the classic unit-stride (stride-one)
// pattern; larger strides model column-major or strided array accesses.
type Stride struct {
	base   uint64
	stride uint64
	ws     uint64
	cur    uint64
}

// NewStride returns a stride generator over ws bytes starting at base.
// stride and ws must be positive; ws is rounded up to a multiple of stride.
func NewStride(base, stride, ws uint64) (*Stride, error) {
	if stride == 0 {
		return nil, fmt.Errorf("addrgen: zero stride")
	}
	if ws == 0 {
		return nil, fmt.Errorf("addrgen: zero working set")
	}
	if rem := ws % stride; rem != 0 {
		if ws > math.MaxUint64-(stride-rem) {
			return nil, fmt.Errorf("addrgen: working set %d overflows when rounded up to stride %d", ws, stride)
		}
		ws += stride - rem
	}
	return &Stride{base: base, stride: stride, ws: ws}, nil
}

// Name implements Generator.
func (s *Stride) Name() string { return "stride" }

// WorkingSet implements Generator.
func (s *Stride) WorkingSet() uint64 { return s.ws }

// Next implements Generator.
func (s *Stride) Next() uint64 {
	a := s.base + s.cur
	s.cur += s.stride
	if s.cur >= s.ws {
		s.cur = 0
	}
	return a
}

// NextBatch implements BatchGenerator. The working set is a whole number
// of strides, so the addresses up to the next wrap form a run that needs
// no per-address wrap test; the position is written back once per batch.
func (s *Stride) NextBatch(dst []uint64) {
	stride, ws, cur := s.stride, s.ws, s.cur
	for len(dst) > 0 {
		run := dst
		if left := (ws - cur) / stride; left < uint64(len(run)) {
			run = run[:left]
		}
		a := s.base + cur
		for i := range run {
			run[i] = a
			a += stride
		}
		cur += uint64(len(run)) * stride
		if cur >= ws {
			cur = 0
		}
		dst = dst[len(run):]
	}
	s.cur = cur
}

// Reset implements Generator.
func (s *Stride) Reset() { s.cur = 0 }

// Random produces uniformly random element-aligned addresses within a
// working set: the pathological random-stride load pattern from main memory
// described in Section III-A of the paper.
type Random struct {
	base uint64
	ws   uint64
	elem uint64
	n    int64 // element count ws/elem, hoisted out of the per-address path
	seed int64
	rng  *rand.Rand
}

// NewRandom returns a random-access generator over ws bytes of elem-byte
// elements starting at base, seeded deterministically.
func NewRandom(base, ws, elem uint64, seed int64) (*Random, error) {
	if elem == 0 || ws < elem {
		return nil, fmt.Errorf("addrgen: working set %d smaller than element %d", ws, elem)
	}
	return &Random{base: base, ws: ws, elem: elem, n: int64(ws / elem), seed: seed, rng: rand.New(rand.NewSource(seed))}, nil
}

// Name implements Generator.
func (r *Random) Name() string { return "random" }

// WorkingSet implements Generator.
func (r *Random) WorkingSet() uint64 { return r.ws }

// Next implements Generator.
func (r *Random) Next() uint64 {
	return r.base + uint64(r.rng.Int63n(r.n))*r.elem
}

// NextBatch implements BatchGenerator, keeping the rand.Rand pointer and
// geometry in locals across the batch.
func (r *Random) NextBatch(dst []uint64) {
	base, elem, n, rng := r.base, r.elem, r.n, r.rng
	for i := range dst {
		dst[i] = base + uint64(rng.Int63n(n))*elem
	}
}

// Reset implements Generator.
func (r *Random) Reset() { r.rng = rand.New(rand.NewSource(r.seed)) }

// Stencil3D sweeps an Nx×Ny×Nz grid of elem-byte cells issuing a 7-point
// stencil (center plus the six face neighbors) per cell, the canonical
// access pattern of finite-difference and spectral-element codes such as
// SPECFEM3D.
type Stencil3D struct {
	base       uint64
	nx, ny, nz uint64
	elem       uint64
	i, j, k    uint64
	point      int
}

// NewStencil3D returns a stencil generator over the given grid.
func NewStencil3D(base uint64, nx, ny, nz, elem uint64) (*Stencil3D, error) {
	if nx == 0 || ny == 0 || nz == 0 || elem == 0 {
		return nil, fmt.Errorf("addrgen: degenerate stencil grid %dx%dx%d elem %d", nx, ny, nz, elem)
	}
	return &Stencil3D{base: base, nx: nx, ny: ny, nz: nz, elem: elem}, nil
}

// Name implements Generator.
func (s *Stencil3D) Name() string { return "stencil3d" }

// WorkingSet implements Generator.
func (s *Stencil3D) WorkingSet() uint64 { return s.nx * s.ny * s.nz * s.elem }

func (s *Stencil3D) addr(i, j, k uint64) uint64 {
	return s.base + ((k*s.ny+j)*s.nx+i)*s.elem
}

// Next implements Generator. It emits the 7 stencil points of the current
// cell (clamped at grid boundaries) before advancing to the next cell in
// row-major order.
func (s *Stencil3D) Next() uint64 {
	i, j, k := s.i, s.j, s.k
	var a uint64
	switch s.point {
	case 0:
		a = s.addr(i, j, k)
	case 1:
		if i > 0 {
			a = s.addr(i-1, j, k)
		} else {
			a = s.addr(i, j, k)
		}
	case 2:
		if i+1 < s.nx {
			a = s.addr(i+1, j, k)
		} else {
			a = s.addr(i, j, k)
		}
	case 3:
		if j > 0 {
			a = s.addr(i, j-1, k)
		} else {
			a = s.addr(i, j, k)
		}
	case 4:
		if j+1 < s.ny {
			a = s.addr(i, j+1, k)
		} else {
			a = s.addr(i, j, k)
		}
	case 5:
		if k > 0 {
			a = s.addr(i, j, k-1)
		} else {
			a = s.addr(i, j, k)
		}
	case 6:
		if k+1 < s.nz {
			a = s.addr(i, j, k+1)
		} else {
			a = s.addr(i, j, k)
		}
	}
	s.point++
	if s.point == 7 {
		s.point = 0
		s.i++
		if s.i == s.nx {
			s.i = 0
			s.j++
			if s.j == s.ny {
				s.j = 0
				s.k++
				if s.k == s.nz {
					s.k = 0
				}
			}
		}
	}
	return a
}

// NextBatch implements BatchGenerator by emitting whole cells. Cells run in
// row-major order, so a cell's center is the previous center plus one
// element, and each neighbor is the center plus or minus an element, a row
// or a plane, or the center itself at a grid boundary. A cell that Next
// began, or that the end of dst cuts, is emitted through Next.
func (s *Stencil3D) NextBatch(dst []uint64) {
	for s.point != 0 && len(dst) > 0 {
		dst[0] = s.Next()
		dst = dst[1:]
	}
	nx, ny, nz, elem := s.nx, s.ny, s.nz, s.elem
	row := nx * elem
	plane := ny * row
	i, j, k := s.i, s.j, s.k
	c := s.addr(i, j, k)
	for len(dst) >= 7 {
		// The row and plane steps hold for the rest of the row.
		var north, south, down, up uint64
		if j > 0 {
			north = row
		}
		if j+1 < ny {
			south = row
		}
		if k > 0 {
			down = plane
		}
		if k+1 < nz {
			up = plane
		}
		cells := nx - i
		if whole := uint64(len(dst) / 7); whole < cells {
			cells = whole
		}
		for ; cells > 0; cells-- {
			var west, east uint64
			if i > 0 {
				west = elem
			}
			if i+1 < nx {
				east = elem
			}
			cell := dst[:7]
			cell[0], cell[1], cell[2] = c, c-west, c+east
			cell[3], cell[4], cell[5], cell[6] = c-north, c+south, c-down, c+up
			dst = dst[7:]
			c += elem
			i++
		}
		if i == nx {
			i = 0
			j++
			if j == ny {
				j = 0
				k++
				if k == nz {
					k = 0
					c = s.base
				}
			}
		}
	}
	s.i, s.j, s.k = i, j, k
	for len(dst) > 0 {
		dst[0] = s.Next()
		dst = dst[1:]
	}
}

// Reset implements Generator.
func (s *Stencil3D) Reset() { s.i, s.j, s.k, s.point = 0, 0, 0, 0 }

// Mix interleaves two generators with a deterministic duty cycle: aRefs
// addresses from A, then bRefs from B, repeating.
type Mix struct {
	a, b         Generator
	aRefs, bRefs int
	pos          int
}

// NewMix builds an interleaving generator.
func NewMix(a, b Generator, aRefs, bRefs int) (*Mix, error) {
	if aRefs < 1 || bRefs < 1 {
		return nil, fmt.Errorf("addrgen: mix duty cycle must be ≥1/≥1, got %d/%d", aRefs, bRefs)
	}
	return &Mix{a: a, b: b, aRefs: aRefs, bRefs: bRefs}, nil
}

// Name implements Generator.
func (m *Mix) Name() string { return "mix(" + m.a.Name() + "," + m.b.Name() + ")" }

// WorkingSet implements Generator.
func (m *Mix) WorkingSet() uint64 { return m.a.WorkingSet() + m.b.WorkingSet() }

// Next implements Generator.
func (m *Mix) Next() uint64 {
	var a uint64
	if m.pos < m.aRefs {
		a = m.a.Next()
	} else {
		a = m.b.Next()
	}
	m.pos++
	if m.pos == m.aRefs+m.bRefs {
		m.pos = 0
	}
	return a
}

// NextBatch implements BatchGenerator by emitting whole duty-cycle runs:
// each run of consecutive A (or B) references becomes one sub-batch filled
// through the sub-generator's own batch path.
func (m *Mix) NextBatch(dst []uint64) {
	for len(dst) > 0 {
		var g Generator
		var run int
		if m.pos < m.aRefs {
			g, run = m.a, m.aRefs-m.pos
		} else {
			g, run = m.b, m.aRefs+m.bRefs-m.pos
		}
		if run > len(dst) {
			run = len(dst)
		}
		FillBatch(g, dst[:run])
		dst = dst[run:]
		m.pos += run
		if m.pos == m.aRefs+m.bRefs {
			m.pos = 0
		}
	}
}

// Reset implements Generator.
func (m *Mix) Reset() {
	m.a.Reset()
	m.b.Reset()
	m.pos = 0
}
