// Algorithm 1 end to end: run the MPI-parallel Heat3d solver, then perform
// the paper's one-base delta computation exactly as written — the rank that
// owns the middle plane broadcasts it, every rank subtracts it from its
// local slabs, and rank 0 gathers the deltas, compresses them, and reports
// the compression win over compressing the raw field.
package main

import (
	"context"
	"fmt"
	"log"

	"lrm/internal/compress/zfp"
	"lrm/internal/grid"
	"lrm/internal/mpi"
	"lrm/internal/parallel"
	"lrm/internal/sim/heat3d"
)

func main() {
	const ranks = 4
	cfg := heat3d.Default(32)
	cfg.Steps = 200

	// Run the full model in parallel (slab decomposition over Z with halo
	// exchanges), like the paper's 512-processor Titan runs.
	field, err := heat3d.SolveParallel(cfg, ranks)
	if err != nil {
		log.Fatal(err)
	}
	n := cfg.N
	plane := n * n
	fmt.Printf("Heat3d solved on %d ranks: %v\n\n", ranks, field.Dims)

	// Algorithm 1: compute the one-base delta with explicit MPI traffic.
	midOwnerPlane := n / 2
	deltas := grid.New(n, n, n)
	world := mpi.NewWorld(ranks)
	world.Run(func(c *mpi.Comm) {
		lo, hi := mpi.Slab1D(n, c.Size(), c.Rank())

		// Lines 1-5: the rank holding u(m_z/2) broadcasts the plane.
		var base []float64
		if lo <= midOwnerPlane && midOwnerPlane < hi {
			base = field.Data[midOwnerPlane*plane : (midOwnerPlane+1)*plane]
			for r := 0; r < c.Size(); r++ {
				if r != c.Rank() {
					c.Send(r, 0, base)
				}
			}
		} else {
			owner := 0
			for r := 0; r < c.Size(); r++ {
				rlo, rhi := mpi.Slab1D(n, c.Size(), r)
				if rlo <= midOwnerPlane && midOwnerPlane < rhi {
					owner = r
				}
			}
			base = c.Recv(owner, 0)
		}

		// Lines 6-8: Delta(i) = u(i) - u(m_z/2) for the local slabs.
		local := make([]float64, (hi-lo)*plane)
		for k := lo; k < hi; k++ {
			for idx := 0; idx < plane; idx++ {
				local[(k-lo)*plane+idx] = field.Data[k*plane+idx] - base[idx]
			}
		}

		// Line 9: gather the delta at rank 0.
		parts := c.Gather(0, local)
		if c.Rank() == 0 {
			pos := 0
			for _, p := range parts {
				copy(deltas.Data[pos:], p)
				pos += len(p)
			}
		}
	})

	// Compare compressing the raw field vs base + delta. A codec value holds
	// only the format (here the precision); the worker budget is an argument
	// of each call, and the zero parallel.Config selects the default pool.
	codec := zfp.MustNew(16)
	deltaCodec := zfp.MustNew(8)
	ctx := context.Background()
	var pcfg parallel.Config

	rawStream, err := codec.Compress(ctx, field, pcfg)
	if err != nil {
		log.Fatal(err)
	}
	basePlane := field.Plane(midOwnerPlane)
	baseStream, err := codec.Compress(ctx, basePlane, pcfg)
	if err != nil {
		log.Fatal(err)
	}
	deltaStream, err := deltaCodec.Compress(ctx, deltas, pcfg)
	if err != nil {
		log.Fatal(err)
	}

	raw := 8 * field.Len()
	direct := len(rawStream)
	precond := len(baseStream) + len(deltaStream)
	fmt.Printf("raw data:                %9d bytes\n", raw)
	fmt.Printf("direct ZFP:              %9d bytes (ratio %.2fx)\n", direct, float64(raw)/float64(direct))
	fmt.Printf("one-base (plane+delta):  %9d bytes (ratio %.2fx)\n", precond, float64(raw)/float64(precond))
	fmt.Printf("\nimprovement from Algorithm 1: %.2fx\n", float64(direct)/float64(precond))
}
