package cf

import (
	"math"

	"birch/internal/vec"
)

// The single-accumulator scan bodies the four-lane kernels in scan.go
// replaced, kept verbatim as test references: each sums one candidate at
// a time into one accumulator and applies the `i == 0 || d < bestD`
// update per candidate. The lane batteries (scan_test.go, the
// FuzzScanLanes target) and the reference-vs-lane microbenchmarks hold
// the production kernels to these bit-for-bit.

// refScanKernelForCore mirrors ScanKernelForCore over the references.
func refScanKernelForCore(m Metric, kind CoreKind) ScanKernel {
	switch m {
	case D0:
		return refScanD0
	case D1:
		return refScanD1
	case D2:
		if kind == CoreBETULA {
			return refScanD2b
		}
		return refScanD2
	case D3:
		if kind == CoreBETULA {
			return refScanD3b
		}
		return refScanD3
	case D4:
		return refScanD4
	case DCos:
		return refScanCos
	default:
		panic("cf: invalid metric " + m.String())
	}
}

func refScanNearestX0(q vec.Vector, b *Block) (int, float64) {
	dim := b.dim
	stride := dim + 1
	k := len(b.n)
	slab := b.x0
	qx := q[:dim] // bounds-check elimination hint
	best, bestD := 0, 0.0
	for i, off := 0, 0; i < k; i, off = i+1, off+stride {
		cx := slab[off : off+dim : off+dim]
		var s float64
		for j, v := range cx {
			d := v - qx[j]
			s += d * d
		}
		if i == 0 || s < bestD {
			best, bestD = i, s
		}
	}
	return best, bestD
}

func refScanD0(q *Query, b *Block) (int, float64) {
	dim := b.dim
	stride := dim + 1
	k := len(b.n)
	slab := b.x0
	qx := q.x0[:dim] // bounds-check elimination hint
	best, bestD := 0, 0.0
	for i, off := 0, 0; i < k; i, off = i+1, off+stride {
		cx := slab[off : off+dim : off+dim]
		var s float64
		for j, v := range cx {
			d := v - qx[j]
			s += d * d
		}
		d := math.Sqrt(s)
		d = d * d
		if i == 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

func refScanD1(q *Query, b *Block) (int, float64) {
	dim := b.dim
	stride := dim + 1
	k := len(b.n)
	slab := b.x0
	qx := q.x0[:dim] // bounds-check elimination hint
	best, bestD := 0, 0.0
	for i, off := 0, 0; i < k; i, off = i+1, off+stride {
		cx := slab[off : off+dim : off+dim]
		var s float64
		for j, v := range cx {
			s += math.Abs(v - qx[j])
		}
		d := s * s
		if i == 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

func refScanD2(q *Query, b *Block) (int, float64) {
	dim := b.dim
	stride := dim + 3
	k := len(b.n)
	slab := b.ls
	qls := q.ls[:dim] // bounds-check elimination hint
	best, bestD := 0, 0.0
	for i, off := 0, 0; i < k; i, off = i+1, off+stride {
		cls := slab[off : off+dim : off+dim]
		var dot float64
		for j, v := range cls {
			dot += v * qls[j]
		}
		d := slab[off+dim] + q.ssOverN - 2*dot/(slab[off+dim+2]*q.n)
		if d < 0 {
			d = 0
		}
		if i == 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

func refScanD3(q *Query, b *Block) (int, float64) {
	dim := b.dim
	stride := dim + 3
	nn := b.n
	slab := b.ls
	qls := q.ls[:dim] // bounds-check elimination hint
	best, bestD := 0, 0.0
	for i, off := 0, 0; i < len(nn); i, off = i+1, off+stride {
		cls := slab[off : off+dim : off+dim]
		var lsSq float64
		for j, v := range cls {
			s := v + qls[j]
			lsSq += s * s
		}
		var d float64
		if n := float64(nn[i] + q.ni); n >= 2 {
			ss := slab[off+dim+1] + q.ss
			d = (2*n*ss - 2*lsSq) / (n * (n - 1))
			if d < 0 {
				d = 0
			}
		}
		if i == 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

func refScanD2b(q *Query, b *Block) (int, float64) {
	dim := b.dim
	stride := dim + 1
	k := len(b.n)
	slab := b.x0
	sb := b.sb
	qx := q.x0[:dim] // bounds-check elimination hint
	best, bestD := 0, 0.0
	for i, off := 0, 0; i < k; i, off = i+1, off+stride {
		cx := slab[off : off+dim : off+dim]
		var d2 float64
		for j, v := range cx {
			d := v - qx[j]
			d2 += d * d
		}
		d := sb[2*i] + q.ssOverN + d2
		if i == 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

func refScanD3b(q *Query, b *Block) (int, float64) {
	dim := b.dim
	stride := dim + 1
	nn := b.n
	slab := b.x0
	sb := b.sb
	qx := q.x0[:dim] // bounds-check elimination hint
	best, bestD := 0, 0.0
	for i, off := 0, 0; i < len(nn); i, off = i+1, off+stride {
		cx := slab[off : off+dim : off+dim]
		var d2 float64
		for j, v := range cx {
			d := v - qx[j]
			d2 += d * d
		}
		var d float64
		if n := float64(nn[i] + q.ni); n >= 2 {
			na := float64(nn[i])
			s := sb[2*i+1] + q.ss + na*q.n/n*d2
			d = 2 * s / (n - 1)
		}
		if i == 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

func refScanCos(q *Query, b *Block) (int, float64) {
	dim := b.dim
	stride := dim + 1
	k := len(b.n)
	slab := b.x0
	cn := b.cn
	qx := q.x0[:dim] // bounds-check elimination hint
	qn := q.x0Norm
	best, bestD := 0, 0.0
	for i, off := 0, 0; i < k; i, off = i+1, off+stride {
		cx := slab[off : off+dim : off+dim]
		var dot float64
		for j, v := range cx {
			dot += v * qx[j]
		}
		d := cosDistSq(dot, cn[i], qn)
		if i == 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

func refScanD4(q *Query, b *Block) (int, float64) {
	dim := b.dim
	stride := dim + 1
	k := len(b.n)
	slab := b.x0
	qx := q.x0[:dim] // bounds-check elimination hint
	best, bestD := 0, 0.0
	for i, off := 0, 0; i < k; i, off = i+1, off+stride {
		cx := slab[off : off+dim : off+dim]
		var cdistSq float64
		for j, v := range cx {
			d := v - qx[j]
			cdistSq += d * d
		}
		na := slab[off+dim]
		d := na * q.n / (na + q.n) * cdistSq
		if i == 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}
