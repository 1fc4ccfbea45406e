// Package snapshot implements the run's persistent data products, the
// paper's section-V pipeline: binary checkpoints of the full state (for
// exact restart) and visualization exports of the Cartesian-component
// fields B, v, omega and T — the paper saved 127 such snapshots, about
// 500 GB, during one six-hour run.
//
// The checkpoint format is a self-describing little-endian binary
// container: a magic header, the grid spec and physical parameters, then
// the eight state scalars of each panel including halos, and a trailing
// CRC-32. Restarting from a checkpoint is bit-exact (tested).
package snapshot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/coords"
	"repro/internal/grid"
	"repro/internal/mhd"
	"repro/internal/sphops"
)

// Magic identifies checkpoint files; the version gates format changes.
const (
	Magic   = "YYGO"
	Version = 2
)

// header is the fixed-size preamble of a checkpoint.
type header struct {
	Version            uint32
	Nr, Nt, Np         int32
	RI, RO             float64
	Gamma, Mu, Kappa   float64
	Eta, G0, Omega, Ti float64
	MagBC              int32
	Pad                int32 // keep 8-byte alignment explicit
	Time               float64
	Step               int64
}

// WriteCheckpoint serializes the solver state (both panels, halos
// included) so that ReadCheckpoint restores it bit-exactly.
func WriteCheckpoint(w io.Writer, sv *mhd.Solver) error {
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)
	bw := bufio.NewWriterSize(mw, 1<<16)

	if _, err := bw.WriteString(Magic); err != nil {
		return err
	}
	h := header{
		Version: Version,
		Nr:      int32(sv.Spec.Nr), Nt: int32(sv.Spec.Nt), Np: int32(sv.Spec.Np),
		RI: sv.Spec.RI, RO: sv.Spec.RO,
		Gamma: sv.Prm.Gamma, Mu: sv.Prm.Mu, Kappa: sv.Prm.Kappa,
		Eta: sv.Prm.Eta, G0: sv.Prm.G0, Omega: sv.Prm.Omega, Ti: sv.Prm.TIn,
		MagBC: int32(sv.Prm.MagBC),
		Time:  sv.Time,
		Step:  int64(sv.Step),
	}
	if err := binary.Write(bw, binary.LittleEndian, &h); err != nil {
		return err
	}
	// One encode buffer serves every row: the payload is written one
	// short radial row at a time, so a per-row buffer would make a
	// checkpoint's garbage grow with the grid.
	buf := make([]byte, 8*chunkFloats)
	for _, pl := range sv.Panels {
		for _, s := range pl.U.Scalars() {
			var werr error
			s.EachInteriorRow(func(i0 int, row []float64) {
				if werr == nil {
					werr = writeFloats(bw, row, buf)
				}
			})
			if werr != nil {
				return werr
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// Trailing checksum over everything written so far.
	return binary.Write(w, binary.LittleEndian, crc.Sum32())
}

// countingReader tracks how many bytes have been consumed, so decode
// and checksum failures can name the byte offset of the damage instead
// of forcing a manual hexdump hunt.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// readHeader consumes and validates a checkpoint's magic and header
// through a CRC tee; the returned hash and tee reader continue the
// checksummed payload read.
func readHeader(r io.Reader) (hash.Hash32, io.Reader, header, error) {
	crc := crc32.NewIEEE()
	br := io.TeeReader(r, crc)
	var h header

	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, nil, h, fmt.Errorf("snapshot: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return nil, nil, h, fmt.Errorf("snapshot: bad magic %q", magic)
	}
	if err := binary.Read(br, binary.LittleEndian, &h); err != nil {
		return nil, nil, h, fmt.Errorf("snapshot: reading header: %w", err)
	}
	if h.Version != Version {
		return nil, nil, h, fmt.Errorf("snapshot: unsupported version %d", h.Version)
	}
	// Sanity-bound the header before allocating anything from it: a
	// corrupt (truncated, bit-flipped) file would otherwise request
	// absurd grid allocations or build a nonsense solver long before the
	// trailing checksum could reject it.
	const maxNodes = 1 << 14
	if h.Nr < 3 || h.Nt < 3 || h.Np < 3 || h.Nr > maxNodes || h.Nt > maxNodes || h.Np > 3*maxNodes {
		return nil, nil, h, fmt.Errorf("snapshot: implausible grid %dx%dx%d in header", h.Nr, h.Nt, h.Np)
	}
	if !(h.RI > 0 && h.RO > h.RI) || math.IsNaN(h.RI) || math.IsNaN(h.RO) || math.IsInf(h.RO, 0) {
		return nil, nil, h, fmt.Errorf("snapshot: implausible shell radii [%g, %g] in header", h.RI, h.RO)
	}
	if h.Step < 0 || h.Step > 1<<40 || math.IsNaN(h.Time) || math.IsInf(h.Time, 0) {
		return nil, nil, h, fmt.Errorf("snapshot: implausible clock t=%g step=%d in header", h.Time, h.Step)
	}
	return crc, br, h, nil
}

// verifyChecksum reads the stored trailing CRC-32 from the raw
// (un-teed) reader and compares it against the hash of everything
// consumed so far; payloadEnd is the byte offset where the hashed
// payload stopped (and the stored checksum begins).
func verifyChecksum(r io.Reader, crc hash.Hash32, payloadEnd int64) error {
	sum := crc.Sum32()
	var stored uint32
	if err := binary.Read(r, binary.LittleEndian, &stored); err != nil {
		return fmt.Errorf("snapshot: reading checksum at byte offset %d: %w", payloadEnd, err)
	}
	if stored != sum {
		return fmt.Errorf("snapshot: checksum mismatch over bytes 0..%d: stored %08x at offset %d, computed %08x",
			payloadEnd-1, stored, payloadEnd, sum)
	}
	return nil
}

// ReadCheckpoint reconstructs a solver from a checkpoint. The restored
// solver carries the stored parameters and the interior state; the
// constraint application (walls + overset exchange) is re-run to
// rebuild the padded halo values the payload does not carry.
func ReadCheckpoint(r io.Reader) (*mhd.Solver, error) {
	in, err := ReadInterior(r)
	if err != nil {
		return nil, err
	}
	return in.Solver()
}

// ReadCheckpointFile reads a checkpoint from disk, prefixing every
// failure with the file path so a corrupt checkpoint names both the
// file and (via the decode errors) the byte offset of the damage.
func ReadCheckpointFile(path string) (*mhd.Solver, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sv, err := ReadCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %s: %w", path, err)
	}
	return sv, nil
}

// chunkFloats is how many float64 values one codec buffer holds.
const chunkFloats = 4096

// writeFloats encodes data little-endian through buf (8*chunkFloats
// bytes, reused across calls).
func writeFloats(w io.Writer, data []float64, buf []byte) error {
	for len(data) > 0 {
		n := min(len(data), chunkFloats)
		for i, v := range data[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		if _, err := w.Write(buf[:8*n]); err != nil {
			return err
		}
		data = data[n:]
	}
	return nil
}

// readFloats decodes len(data) little-endian values through buf
// (8*chunkFloats bytes, reused across calls), requesting exact byte
// counts from r.
func readFloats(r io.Reader, data []float64, buf []byte) error {
	for len(data) > 0 {
		n := min(len(data), chunkFloats)
		if _, err := io.ReadFull(r, buf[:8*n]); err != nil {
			return err
		}
		for i := range data[:n] {
			data[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
		}
		data = data[n:]
	}
	return nil
}

// VizExport is the visualization product of section V: the Cartesian
// components of B, v and omega plus T, in single precision, on the panel
// node set with optional angular subsampling.
type VizExport struct {
	Spec      grid.Spec
	Subsample int // keep every Subsample-th angular node (1 = all)
	Time      float64
	// Fields[panel][f] with f indexing Bx,By,Bz,Vx,Vy,Vz,Wx,Wy,Wz,T;
	// each slice is radial-fastest over the kept nodes.
	Fields [2][10][]float32
	// KeptNt, KeptNp are the angular node counts after subsampling.
	KeptNt, KeptNp int
}

// FieldNames lists the export field order.
func FieldNames() [10]string {
	return [10]string{"Bx", "By", "Bz", "Vx", "Vy", "Vz", "Wx", "Wy", "Wz", "T"}
}

// BuildVizExport converts the solver's state into the section-V product.
// The spherical components of v, B and the derived vorticity are rotated
// into geographic Cartesian components exactly as the paper stored them
// ("it is convenient for data visualization/analysis purpose to store
// the Cartesian components").
func BuildVizExport(sv *mhd.Solver, subsample int) (*VizExport, error) {
	if subsample < 1 {
		return nil, fmt.Errorf("snapshot: subsample must be >= 1, got %d", subsample)
	}
	ex := &VizExport{Spec: sv.Spec, Subsample: subsample, Time: sv.Time}
	for pi, pl := range sv.Panels {
		mhd.ComputeVTB(pl, &pl.U)
		p := pl.Patch
		h := p.H
		vort := p.NewVector()
		sphops.Curl(p, pl.V, vort, pl.W)

		keptJ := keepIndices(p.Nt, subsample)
		keptK := keepIndices(p.Np, subsample)
		ex.KeptNt, ex.KeptNp = len(keptJ), len(keptK)
		n := sv.Spec.Nr * len(keptJ) * len(keptK)
		for f := range ex.Fields[pi] {
			ex.Fields[pi][f] = make([]float32, 0, n)
		}
		for _, k := range keptK {
			for _, j := range keptJ {
				th, ph := p.Theta[j+h], p.Phi[k+h]
				for i := h; i < h+p.Nr; i++ {
					b := toGeoCart(p.Panel, th, ph, pl.B.R.At(i, j+h, k+h), pl.B.T.At(i, j+h, k+h), pl.B.P.At(i, j+h, k+h))
					v := toGeoCart(p.Panel, th, ph, pl.V.R.At(i, j+h, k+h), pl.V.T.At(i, j+h, k+h), pl.V.P.At(i, j+h, k+h))
					w := toGeoCart(p.Panel, th, ph, vort.R.At(i, j+h, k+h), vort.T.At(i, j+h, k+h), vort.P.At(i, j+h, k+h))
					ex.Fields[pi][0] = append(ex.Fields[pi][0], float32(b.X))
					ex.Fields[pi][1] = append(ex.Fields[pi][1], float32(b.Y))
					ex.Fields[pi][2] = append(ex.Fields[pi][2], float32(b.Z))
					ex.Fields[pi][3] = append(ex.Fields[pi][3], float32(v.X))
					ex.Fields[pi][4] = append(ex.Fields[pi][4], float32(v.Y))
					ex.Fields[pi][5] = append(ex.Fields[pi][5], float32(v.Z))
					ex.Fields[pi][6] = append(ex.Fields[pi][6], float32(w.X))
					ex.Fields[pi][7] = append(ex.Fields[pi][7], float32(w.Y))
					ex.Fields[pi][8] = append(ex.Fields[pi][8], float32(w.Z))
					ex.Fields[pi][9] = append(ex.Fields[pi][9], float32(pl.T.At(i, j+h, k+h)))
				}
			}
		}
	}
	return ex, nil
}

func keepIndices(n, sub int) []int {
	var out []int
	for i := 0; i < n; i += sub {
		out = append(out, i)
	}
	return out
}

func toGeoCart(panel grid.Panel, th, ph, vr, vt, vp float64) coords.Cartesian {
	c := coords.SphToCartVec(th, ph, coords.SphVec{VR: vr, VT: vt, VP: vp})
	if panel == grid.Yang {
		c = coords.YinYang(c)
	}
	return c
}

// Bytes returns the export's payload size, the quantity the paper's
// "about 500 GB" refers to across 127 saves.
func (ex *VizExport) Bytes() int64 {
	var n int64
	for pi := range ex.Fields {
		for f := range ex.Fields[pi] {
			n += int64(4 * len(ex.Fields[pi][f]))
		}
	}
	return n
}

// WriteVizExport streams the export as a simple binary container:
// magic "YYVZ", spec ints, subsample, time, then each panel's ten field
// arrays in FieldNames order.
func WriteVizExport(w io.Writer, ex *VizExport) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString("YYVZ"); err != nil {
		return err
	}
	meta := []int32{int32(ex.Spec.Nr), int32(ex.Spec.Nt), int32(ex.Spec.Np),
		int32(ex.Subsample), int32(ex.KeptNt), int32(ex.KeptNp)}
	if err := binary.Write(bw, binary.LittleEndian, meta); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, ex.Time); err != nil {
		return err
	}
	for pi := range ex.Fields {
		for f := range ex.Fields[pi] {
			if err := binary.Write(bw, binary.LittleEndian, ex.Fields[pi][f]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
