// Package ppgnn is a privacy-preserving group k-nearest-neighbor (kGNN)
// search library, implementing Wu, Lin, Zhang, Wang and Chen, "Privacy
// Preserving Group Nearest Neighbor Search", EDBT 2018.
//
// A group of n mobile users retrieves the top-k POIs minimizing a monotone
// aggregate of their distances from a location-based service provider
// (LSP), with four privacy guarantees:
//
//	I   — each user's location is hidden from the LSP among d locations;
//	II  — the group query and answer are hidden among δ ≥ d candidates;
//	III — users learn nothing beyond the requested answer;
//	IV  — each user's location stays hidden from the other n−1 users, even
//	      if they all collude (the answer is sanitized against the
//	      inequality attack).
//
// # Quickstart
//
//	pois := ppgnn.SyntheticDataset(1, 10000)
//	server := ppgnn.NewServer(pois, ppgnn.UnitSpace)
//
//	params := ppgnn.DefaultParams(3) // a group of three users
//	group, err := ppgnn.NewGroup(params, []ppgnn.Point{
//		{X: 0.21, Y: 0.35}, {X: 0.25, Y: 0.31}, {X: 0.23, Y: 0.40},
//	}, nil)
//	if err != nil { ... }
//
//	res, err := group.Run(ppgnn.Local(server), nil)
//	for _, p := range res.Points {
//		fmt.Println("meeting place:", p)
//	}
//
// The protocol variants (PPGNN, PPGNN-OPT, Naive), the full-collusion
// answer sanitation, and the cost meters reproduce the paper's evaluation;
// see DESIGN.md and EXPERIMENTS.md.
package ppgnn

import (
	"io"
	"math/rand"

	"ppgnn/internal/core"
	"ppgnn/internal/cost"
	"ppgnn/internal/dataset"
	"ppgnn/internal/encode"
	"ppgnn/internal/geo"
	"ppgnn/internal/gnn"
	"ppgnn/internal/group"
	"ppgnn/internal/paillier"
	"ppgnn/internal/rtree"
	"ppgnn/internal/transport"
)

// Point is a planar location.
type Point = geo.Point

// Rect is an axis-aligned rectangle (the location space).
type Rect = geo.Rect

// UnitSpace is the normalized unit-square location space used by the
// paper's experiments.
var UnitSpace = geo.UnitRect

// POI is a point of interest in the LSP's database.
type POI = rtree.Item

// Aggregate selects the cost function F: Sum, Max or Min.
type Aggregate = gnn.Aggregate

// Aggregate functions (Eqn 1).
const (
	Sum = gnn.Sum
	Max = gnn.Max
	Min = gnn.Min
)

// SearchResult is one ranked POI of a plaintext group query.
type SearchResult = gnn.Result

// Params collects the protocol parameters (Table 3).
type Params = core.Params

// Variant selects the protocol flavour.
type Variant = core.Variant

// Protocol variants.
const (
	PPGNN    = core.VariantPPGNN
	PPGNNOPT = core.VariantOPT
	Naive    = core.VariantNaive
)

// DefaultParams returns the paper's default parameterization for a group
// of n users: d=25, δ=100 (δ=d for n=1), k=8, θ0=0.05, 1024-bit keys,
// F=sum.
func DefaultParams(n int) Params { return core.DefaultParams(n) }

// Server is the LSP: it owns the POI database (R-tree indexed, dynamic)
// and processes queries.
type Server = core.LSP

// NewServer builds an LSP over the POI database.
func NewServer(pois []POI, space Rect) *Server { return core.NewLSP(pois, space) }

// Group is the client side with all n users in one process: a
// Coordinator (user 0) plus the other users' locations in shared memory.
// GroupSession is the same coordinator over member links.
type Group = core.Group

// NewGroup validates parameters, solves the partition-parameter program
// (Eqn 7–10), and generates the coordinator's key pair. A nil rng draws
// from a ChaCha8 stream keyed from OS entropy.
func NewGroup(p Params, locations []Point, rng *rand.Rand) (*Group, error) {
	return core.NewGroup(p, locations, rng)
}

// ThresholdGroup is a Group whose answer decryption requires t of the n
// users to cooperate (no single user — coordinator included — can decrypt
// alone): the same type, holding a threshold key and the users' shares
// instead of a sole key. See examples/threshold.
type ThresholdGroup = core.ThresholdGroup

// NewThresholdGroup builds a group with a (t, n)-threshold Paillier key
// (Damgård–Jurik threshold decryption) and no sole key. Key generation
// uses safe primes and is slower than NewGroup.
func NewThresholdGroup(p Params, locations []Point, rng *rand.Rand, t int) (*ThresholdGroup, error) {
	return core.NewThresholdGroup(p, locations, rng, t)
}

// Result is a decoded query answer.
type Result = core.Result

// Record is one POI record of an answer (32-bit quantized coordinates and,
// when Params.IncludeIDs is set, the POI identifier).
type Record = encode.Record

// Service abstracts the LSP endpoint a Group queries.
type Service = core.Service

// Local wraps an in-process Server as a Service. Costs incurred by the
// server are attributed to the same meter passed to Group.Run.
func Local(s *Server) Service { return core.LocalService{LSP: s} }

// LocalMetered is Local with the LSP computation attributed to meter.
func LocalMetered(s *Server, meter *Meter) Service {
	return core.LocalService{LSP: s, Meter: meter}
}

// Meter accumulates the paper's three cost metrics for a protocol run.
type Meter = cost.Meter

// CostSnapshot is a frozen view of a Meter.
type CostSnapshot = cost.Snapshot

// ListenAndServe exposes a Server on a TCP address and returns the
// listening endpoint. Close it to stop serving.
func ListenAndServe(s *Server, addr string) (*transport.Server, error) {
	srv := transport.NewServer(s)
	if _, err := srv.Listen(addr); err != nil {
		return nil, err
	}
	return srv, nil
}

// Pool is a fault-tolerant Service over a bounded pool of connections to
// a remote Server: automatic reconnect, retry with exponential backoff
// and jitter for transient failures, and per-query deadlines. See
// DESIGN.md "Transport reliability" for the retry semantics.
type Pool = transport.Pool

// NewPool returns a Pool serving queries to addr with default sizing;
// adjust its exported fields before the first query.
func NewPool(addr string) *Pool { return transport.NewPool(addr) }

// SequoiaDataset returns the deterministic Sequoia-substitute database
// (62,556 clustered POIs in the unit square; see DESIGN.md §5).
func SequoiaDataset() []POI { return dataset.Sequoia(dataset.DefaultSeed) }

// SyntheticDataset generates n clustered POIs with the given seed.
func SyntheticDataset(seed int64, n int) []POI { return dataset.Synthetic(seed, n) }

// LoadDataset reads a whitespace-separated point file and normalizes it
// into the unit square (accepts the real Sequoia file).
func LoadDataset(r io.Reader) ([]POI, error) { return dataset.Load(r) }

// LoadDatasetFile is LoadDataset over a path.
func LoadDatasetFile(path string) ([]POI, error) { return dataset.LoadFile(path) }

// Coordinator is everything u_c does — key material, round plan,
// indicator encryption, answer decryption — with only its own location.
// A Group embeds one beside the other users' locations; a GroupSession
// drives one against member links.
type Coordinator = core.Coordinator

// NewCoordinator builds a sole-key coordinator for a roster of
// p.N users (coordinator included); it alone can decrypt answers.
func NewCoordinator(p Params, loc Point, rng *rand.Rand) (*Coordinator, error) {
	return core.NewCoordinator(p, loc, rng)
}

// KeyShare is one user's share of a (t, n)-threshold key.
type KeyShare = paillier.KeyShare

// NewThresholdCoordinator builds a threshold-mode coordinator: the
// returned shares belong to the members, in roster order (the coordinator
// keeps the first share itself).
func NewThresholdCoordinator(p Params, loc Point, rng *rand.Rand, t int) (*Coordinator, []*KeyShare, error) {
	return core.NewThresholdCoordinator(p, loc, rng, t)
}

// GroupMember is the member side of a distributed group session: it
// answers contribution requests (and, holding a key share, partial-
// decryption requests) behind an in-process link or a MemberServer.
type GroupMember = group.Member

// NewGroupMember returns a member at loc; assign TK and Share for
// threshold mode.
func NewGroupMember(loc Point, rng *rand.Rand) *GroupMember {
	return group.NewMember(loc, nil, rng)
}

// MemberLink is one coordinator↔member channel.
type MemberLink = group.Link

// InProcessMember links a member living in the same process.
func InProcessMember(m *GroupMember) MemberLink { return group.NewProcLink(m) }

// DialGroupMember links a member served by a MemberServer at addr.
func DialGroupMember(addr string) MemberLink { return group.DialMember(addr) }

// GroupSession runs one quorum group query: collect contributions from
// the members (re-partitioning as dropouts shrink the roster), query the
// LSP, and decrypt — jointly in threshold mode. Dropouts beyond n−t fail
// fast with ErrQuorumLost; malformed or equivocating members are ejected
// with ErrBadContribution. See DESIGN.md §8.
type GroupSession = group.Session

// SessionConfig tunes a GroupSession (quorum, per-member deadline,
// retry/backoff schedule).
type SessionConfig = group.Config

// SessionOutcome reports how a session ended: result, contributors, and
// every ejected member with its typed error.
type SessionOutcome = group.Outcome

// NewSession wires a coordinator to its member links; a session runs one
// query.
func NewSession(c *Coordinator, links []MemberLink, cfg SessionConfig) (*GroupSession, error) {
	return group.NewSession(c, links, cfg)
}

// ErrQuorumLost reports that a group session lost so many members that
// no quorum can complete it; match with errors.Is.
var ErrQuorumLost = core.ErrQuorumLost

// ErrBadContribution reports a malformed, duplicate, or equivocating
// member contribution; match with errors.Is.
var ErrBadContribution = core.ErrBadContribution

// MemberServer exposes a GroupMember on a TCP address.
type MemberServer = transport.MemberServer
