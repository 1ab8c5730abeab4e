// Package matrix provides the small dense linear-algebra kernel used by the
// neutrality-inference theory: rank computation, consistency ("does
// y = A·x admit a solution?"), full-column-rank tests (Lemma 4), and
// least-squares solves. Everything is float64 Gaussian elimination with
// partial pivoting plus Householder QR — no external dependencies.
package matrix

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// New returns a zero matrix of the given shape.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("matrix: negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices (all equal length).
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("matrix: ragged rows: row %d has %d cols, want %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	return append([]float64(nil), m.Data[i*m.Cols:(i+1)*m.Cols]...)
}

// MulVec returns A·x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("matrix: MulVec dimension mismatch: %d cols vs %d vector", m.Cols, len(x)))
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, a := range row {
			s += a * x[j]
		}
		y[i] = s
	}
	return y
}

// AppendColumn returns [A | b] as a new matrix.
func (m *Matrix) AppendColumn(b []float64) *Matrix {
	if len(b) != m.Rows {
		panic("matrix: AppendColumn length mismatch")
	}
	out := New(m.Rows, m.Cols+1)
	for i := 0; i < m.Rows; i++ {
		copy(out.Data[i*out.Cols:], m.Data[i*m.Cols:(i+1)*m.Cols])
		out.Data[i*out.Cols+m.Cols] = b[i]
	}
	return out
}

// DefaultTol is the pivot tolerance used when callers pass tol <= 0.
const DefaultTol = 1e-9

// Rank returns the numerical rank of m using Gaussian elimination with
// partial pivoting. Pivots with absolute value <= tol (scaled by the largest
// entry) count as zero.
func (m *Matrix) Rank(tol float64) int {
	if tol <= 0 {
		tol = DefaultTol
	}
	a := m.Clone()
	scale := a.maxAbs()
	if scale == 0 {
		return 0
	}
	eps := tol * scale
	rank := 0
	for col := 0; col < a.Cols && rank < a.Rows; col++ {
		// Find pivot.
		p, best := -1, eps
		for r := rank; r < a.Rows; r++ {
			if v := math.Abs(a.At(r, col)); v > best {
				best, p = v, r
			}
		}
		if p < 0 {
			continue
		}
		a.swapRows(rank, p)
		pv := a.At(rank, col)
		for r := rank + 1; r < a.Rows; r++ {
			f := a.At(r, col) / pv
			if f == 0 {
				continue
			}
			for c := col; c < a.Cols; c++ {
				a.Set(r, c, a.At(r, c)-f*a.At(rank, c))
			}
		}
		rank++
	}
	return rank
}

func (m *Matrix) maxAbs() float64 {
	mx := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

func (m *Matrix) swapRows(i, j int) {
	if i == j {
		return
	}
	ri := m.Data[i*m.Cols : (i+1)*m.Cols]
	rj := m.Data[j*m.Cols : (j+1)*m.Cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// FullColumnRank reports whether rank(m) == Cols (Lemma 4's condition).
func (m *Matrix) FullColumnRank(tol float64) bool {
	return m.Rank(tol) == m.Cols
}

// Consistent reports whether the system A·x = b has at least one solution,
// by the Rouché–Capelli test rank(A) == rank([A|b]).
//
// This is the paper's notion of "System 3 has a solution": a neutral network
// always yields a consistent system (Lemma 1), so inconsistency certifies a
// neutrality violation.
func Consistent(a *Matrix, b []float64, tol float64) bool {
	return a.Rank(tol) == a.AppendColumn(b).Rank(tol)
}

// LeastSquares solves min ||A·x − b||₂ by Householder QR and returns x and
// the residual norm. When A is rank-deficient the free variables are pinned
// to zero (basic solution). Shapes: A is m×n with m >= 1, len(b) == m.
func LeastSquares(a *Matrix, b []float64) (x []float64, residual float64) {
	if len(b) != a.Rows {
		panic("matrix: LeastSquares length mismatch")
	}
	m, n := a.Rows, a.Cols
	r := a.Clone()
	qtb := append([]float64(nil), b...)
	piv := make([]int, n) // column pivot order
	for j := range piv {
		piv[j] = j
	}

	scale := r.maxAbs()
	eps := DefaultTol * math.Max(scale, 1)

	k := 0 // current factorization step
	for col := 0; col < n && k < m; col++ {
		// Column pivoting: pick the remaining column with the largest
		// trailing norm to improve rank-deficient behaviour.
		bestCol, bestNorm := -1, eps
		for c := col; c < n; c++ {
			s := 0.0
			for i := k; i < m; i++ {
				v := r.At(i, piv[c])
				s += v * v
			}
			if s := math.Sqrt(s); s > bestNorm {
				bestNorm, bestCol = s, c
			}
		}
		if bestCol < 0 {
			break
		}
		piv[col], piv[bestCol] = piv[bestCol], piv[col]
		jc := piv[col]

		// Householder vector for r[k:m, jc].
		alpha := 0.0
		for i := k; i < m; i++ {
			v := r.At(i, jc)
			alpha += v * v
		}
		alpha = math.Sqrt(alpha)
		if r.At(k, jc) > 0 {
			alpha = -alpha
		}
		v := make([]float64, m-k)
		for i := k; i < m; i++ {
			v[i-k] = r.At(i, jc)
		}
		v[0] -= alpha
		vnorm2 := 0.0
		for _, w := range v {
			vnorm2 += w * w
		}
		if vnorm2 > 0 {
			// Apply H = I - 2vvᵀ/vᵀv to remaining columns and to qtb.
			for c := col; c < n; c++ {
				jcc := piv[c]
				dot := 0.0
				for i := k; i < m; i++ {
					dot += v[i-k] * r.At(i, jcc)
				}
				f := 2 * dot / vnorm2
				for i := k; i < m; i++ {
					r.Set(i, jcc, r.At(i, jcc)-f*v[i-k])
				}
			}
			dot := 0.0
			for i := k; i < m; i++ {
				dot += v[i-k] * qtb[i]
			}
			f := 2 * dot / vnorm2
			for i := k; i < m; i++ {
				qtb[i] -= f * v[i-k]
			}
		}
		k++
	}

	rank := k
	// Back substitution on the rank×rank upper-triangular system.
	x = make([]float64, n)
	for i := rank - 1; i >= 0; i-- {
		s := qtb[i]
		for j := i + 1; j < rank; j++ {
			s -= r.At(i, piv[j]) * x[piv[j]]
		}
		d := r.At(i, piv[i])
		if math.Abs(d) <= eps {
			x[piv[i]] = 0
			continue
		}
		x[piv[i]] = s / d
	}
	res := 0.0
	for i := rank; i < m; i++ {
		res += qtb[i] * qtb[i]
	}
	return x, math.Sqrt(res)
}

// ResidualNorm returns ||A·x − b||₂.
func ResidualNorm(a *Matrix, x, b []float64) float64 {
	y := a.MulVec(x)
	s := 0.0
	for i := range y {
		d := y[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
