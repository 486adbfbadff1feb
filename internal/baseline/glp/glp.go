// Package glp implements the second group-query baseline of Section 8.3.2:
// the group location privacy scheme of Ashouri-Talouki et al. [2] ("GLP: A
// cryptographic approach for group location privacy", Computer
// Communications 2012).
//
// The users jointly compute their centroid with a secure multiparty sum —
// modeled here as pairwise additive masking with Paillier-encrypted mask
// exchange, which reproduces the O(n²) cryptographic operations and the
// O(n²) intra-group traffic the paper measures (Figure 8d–e) — and the LSP
// answers a plaintext kNN query at the centroid.
//
// Privacy profile (Table 4): Privacy I and III hold (no user location or
// extra POI is revealed), but the LSP sees the centroid query and its
// answer (no Privacy II), and n−1 colluders can recover the last user's
// location from the centroid (no Privacy IV). The answer is approximate:
// the kNN of the centroid is generally not the kGNN of the group.
package glp

import (
	"crypto/rand"
	"fmt"
	"math/big"
	mrand "math/rand"
	"time"

	"ppgnn/internal/cost"
	"ppgnn/internal/geo"
	"ppgnn/internal/paillier"
	"ppgnn/internal/rtree"
)

// coordBits quantizes coordinates for the secure sum; 32 bits per axis
// matches the answer encoding used elsewhere.
const coordBits = 32

// Server is the GLP LSP: a plain kNN server.
type Server struct {
	Space geo.Rect
	tree  *rtree.Tree
}

// NewServer indexes the POI database.
func NewServer(items []rtree.Item, space geo.Rect) *Server {
	return &Server{Space: space, tree: rtree.Bulk(items, rtree.DefaultMaxEntries)}
}

// KNN answers the plaintext centroid query (the LSP sees it — the Privacy
// II loss of this scheme).
func (s *Server) KNN(center geo.Point, k int, meter *cost.Meter) []rtree.Item {
	start := time.Now()
	defer func() { meter.AddTime(cost.LSP, time.Since(start)) }()
	nbs := s.tree.NearestK(center, k)
	out := make([]rtree.Item, len(nbs))
	for i, nb := range nbs {
		out[i] = nb.Item
	}
	return out
}

// Group is the GLP client group.
type Group struct {
	Locations []geo.Point
	Space     geo.Rect
	KeyBits   int
	Rng       *mrand.Rand

	keys []*paillier.PrivateKey // per-user keys, generated on first use
	// pubs[j] is user j's key as every other user holds it: the modulus
	// alone. Encrypting under keys[j] itself would hand user i the key
	// holder's CRT shortcut, which only user j has.
	pubs []*paillier.PublicKey
}

// Query runs the GLP protocol: secure-sum centroid then centroid kNN.
func (g *Group) Query(srv *Server, k int, meter *cost.Meter) ([]rtree.Item, error) {
	n := len(g.Locations)
	if n < 1 {
		return nil, fmt.Errorf("glp: empty group")
	}
	if g.KeyBits < 128 {
		return nil, fmt.Errorf("glp: key size %d too small for the mask range", g.KeyBits)
	}
	// Every user has a key pair for receiving encrypted mask shares;
	// generated once per group and reused across queries (the one-time
	// keygen is excluded from the per-query user cost, as for PPGNN).
	if g.keys == nil {
		keys := make([]*paillier.PrivateKey, n)
		pubs := make([]*paillier.PublicKey, n)
		for i := range keys {
			key, err := paillier.GenerateKey(nil, g.KeyBits)
			if err != nil {
				return nil, fmt.Errorf("glp: keygen: %w", err)
			}
			keys[i], pubs[i] = key, paillier.NewPublicKey(key.N)
		}
		g.keys, g.pubs = keys, pubs
	}
	keys := g.keys
	userStart := time.Now()

	// Quantize locations; the modulus for the additive sharing must exceed
	// n·2^coordBits on each axis, so pack (x,y) into one integer with a
	// wide gap.
	const axisShift = coordBits + 16
	quant := func(p geo.Point) *big.Int {
		fx := (p.X - g.Space.Min.X) / g.Space.Width()
		fy := (p.Y - g.Space.Min.Y) / g.Space.Height()
		x := uint64(fx * float64(1<<coordBits-1))
		y := uint64(fy * float64(1<<coordBits-1))
		v := new(big.Int).SetUint64(x)
		v.Lsh(v, axisShift)
		v.Or(v, new(big.Int).SetUint64(y))
		return v
	}

	// Pairwise additive masking: user i draws r_ij for every j≠i, sends
	// Enc_j(r_ij), and publishes s_i = v_i + Σ_j r_ji − Σ_j r_ij. The sum
	// of the s_i equals Σ v_i with all masks cancelling. This costs n(n−1)
	// encryptions + decryptions and n(n−1) ciphertext transfers — the
	// O(n²) behaviour of Figure 8e.
	maskBound := new(big.Int).Lsh(big.NewInt(1), 2*axisShift)
	sent := make([][]*big.Int, n) // sent[i][j]: r_ij plaintext
	recv := make([][]*big.Int, n) // recv[j][i]: r_ij decrypted by j
	for i := range sent {
		sent[i] = make([]*big.Int, n)
		recv[i] = make([]*big.Int, n)
	}
	encCount := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			r, err := rand.Int(rand.Reader, maskBound)
			if err != nil {
				return nil, fmt.Errorf("glp: drawing mask: %w", err)
			}
			sent[i][j] = r
			ct, err := g.pubs[j].Encrypt(nil, r, 1)
			if err != nil {
				return nil, fmt.Errorf("glp: encrypting mask: %w", err)
			}
			meter.AddBytes(cost.IntraGroup, 2*((keys[j].N.BitLen()+7)/8))
			dec, err := keys[j].Decrypt(ct)
			if err != nil {
				return nil, fmt.Errorf("glp: decrypting mask: %w", err)
			}
			recv[j][i] = dec
			encCount++
		}
	}
	meter.CountOp("glp-enc", int64(encCount))
	meter.CountOp("glp-dec", int64(encCount))

	// Each user publishes a masked share; the shares circulate in the
	// group (n−1 recipients each).
	mod := new(big.Int).Lsh(big.NewInt(1), 3*axisShift) // > n·(v+masks)
	total := new(big.Int)
	for i := 0; i < n; i++ {
		s := quant(g.Locations[i])
		si := new(big.Int).Set(s)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			si.Add(si, recv[i][j])
			si.Sub(si, sent[i][j])
		}
		si.Mod(si, mod)
		meter.AddBytes(cost.IntraGroup, (n-1)*len(si.Bytes()))
		total.Add(total, si)
	}
	total.Mod(total, mod)

	// Unpack the centroid. The y-axis sum occupies the low bits (each
	// user's y < 2^32, so the sum < n·2^32 < 2^axisShift).
	yMask := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), axisShift), big.NewInt(1))
	sumY := new(big.Int).And(total, yMask)
	sumX := new(big.Int).Rsh(total, axisShift)
	cx := float64(sumX.Uint64()) / float64(n) / float64(1<<coordBits-1)
	cy := float64(sumY.Uint64()) / float64(n) / float64(1<<coordBits-1)
	centroid := geo.Point{
		X: g.Space.Min.X + cx*g.Space.Width(),
		Y: g.Space.Min.Y + cy*g.Space.Height(),
	}
	meter.AddTime(cost.Users, time.Since(userStart))

	// The coordinator sends the centroid query; LSP returns the plaintext
	// answer; the coordinator broadcasts it.
	meter.AddBytes(cost.UserToLSP, 20)
	res := srv.KNN(centroid, k, meter)
	meter.AddBytes(cost.LSPToUser, len(res)*24)
	meter.AddBytes(cost.IntraGroup, (n-1)*len(res)*24)
	return res, nil
}

// Centroid returns the exact centroid for test comparison.
func (g *Group) Centroid() geo.Point { return geo.Centroid(g.Locations) }
