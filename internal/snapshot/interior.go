package snapshot

import (
	"fmt"
	"io"

	"repro/internal/grid"
	"repro/internal/mhd"
)

// Interior is the layout-neutral content of a v2 checkpoint: the grid
// spec, the physical parameters, the clock, and each panel's eight
// state scalars as interior-only slabs — no halos, no decomposition
// imprint. A checkpoint written by a world of any shape deserializes to
// the same Interior, which any other world shape can then scatter
// against its own layout (decomp.ScatterInterior); that is what makes
// campaign restarts elastic.
type Interior struct {
	Spec grid.Spec
	Prm  mhd.Params
	Time float64
	Step int
	// Fields[panel][s] holds scalar s of the panel in the on-disk
	// payload order: radial rows of Spec.Nr values, theta-major within
	// a phi slice (row (j, k) begins at ((k*Spec.Nt)+j)*Spec.Nr).
	Fields [2][8][]float64
}

// InteriorOf copies a solver's interior state into the layout-neutral
// form, exactly as WriteCheckpoint would serialize it.
func InteriorOf(sv *mhd.Solver) *Interior {
	in := &Interior{Spec: sv.Spec, Prm: sv.Prm, Time: sv.Time, Step: sv.Step}
	for pi, pl := range sv.Panels {
		for si, s := range pl.U.Scalars() {
			slab := make([]float64, sv.Spec.Nr*sv.Spec.Nt*sv.Spec.Np)
			pos := 0
			s.EachInteriorRow(func(_ int, row []float64) {
				copy(slab[pos:pos+len(row)], row)
				pos += len(row)
			})
			in.Fields[pi][si] = slab
		}
	}
	return in
}

// Solver rebuilds a serial solver from the interior state: halos, rims
// and walls are re-established by a constraint application, so the
// result is bit-identical to the solver the checkpoint was written
// from.
func (in *Interior) Solver() (*mhd.Solver, error) {
	sv, err := mhd.NewSolver(in.Spec, in.Prm, mhd.InitialConditions{})
	if err != nil {
		return nil, fmt.Errorf("snapshot: rebuilding solver: %w", err)
	}
	for pi, pl := range sv.Panels {
		for si, s := range pl.U.Scalars() {
			slab := in.Fields[pi][si]
			if len(slab) != in.Spec.Nr*in.Spec.Nt*in.Spec.Np {
				return nil, fmt.Errorf("snapshot: interior slab of %d values for %dx%dx%d grid",
					len(slab), in.Spec.Nr, in.Spec.Nt, in.Spec.Np)
			}
			pos := 0
			s.EachInteriorRow(func(_ int, row []float64) {
				copy(row, slab[pos:pos+len(row)])
				pos += len(row)
			})
		}
	}
	sv.Time = in.Time
	sv.Step = in.Step
	sv.ApplyConstraints()
	return sv, nil
}

// Row returns the interior radial row (j, k) of the given panel and
// scalar (all indices 0-based interior coordinates).
func (in *Interior) Row(panel, scalar, j, k int) []float64 {
	off := ((k * in.Spec.Nt) + j) * in.Spec.Nr
	return in.Fields[panel][scalar][off : off+in.Spec.Nr]
}

// ReadInterior deserializes a checkpoint into its layout-neutral form,
// verifying the header bounds and the trailing checksum exactly as
// ReadCheckpoint does — but without building a solver, so the caller
// can scatter the payload against any world layout.
func ReadInterior(r io.Reader) (*Interior, error) {
	// No read-ahead buffering here: every read below requests exact byte
	// counts, so the hashed prefix ends exactly where the trailing
	// checksum begins — and the counter can name the offset of any
	// decode failure.
	cr := &countingReader{r: r}
	crc, br, h, err := readHeader(cr)
	if err != nil {
		return nil, fmt.Errorf("%w (at byte offset %d)", err, cr.n)
	}
	in := &Interior{
		Spec: grid.Spec{Nr: int(h.Nr), Nt: int(h.Nt), Np: int(h.Np), RI: h.RI, RO: h.RO},
		Prm: mhd.Params{Gamma: h.Gamma, Mu: h.Mu, Kappa: h.Kappa, Eta: h.Eta,
			G0: h.G0, Omega: h.Omega, TIn: h.Ti, MagBC: mhd.MagneticBC(h.MagBC)},
		Time: h.Time,
		Step: int(h.Step),
	}
	slabLen := in.Spec.Nr * in.Spec.Nt * in.Spec.Np
	buf := make([]byte, 8*chunkFloats)
	for pi := range in.Fields {
		for si := range in.Fields[pi] {
			slab := make([]float64, slabLen)
			if err := readFloats(br, slab, buf); err != nil {
				return nil, fmt.Errorf("snapshot: reading field (panel %d, scalar %d) at byte offset %d: %w",
					pi, si, cr.n, err)
			}
			in.Fields[pi][si] = slab
		}
	}
	// Everything consumed through the tee has been hashed; the stored
	// checksum itself arrives from the counted raw reader.
	if err := verifyChecksum(cr, crc, cr.n); err != nil {
		return nil, err
	}
	return in, nil
}
