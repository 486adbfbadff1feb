package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"time"

	"ppgnn/internal/core"
	"ppgnn/internal/dummy"
	"ppgnn/internal/encode"
	"ppgnn/internal/geo"
	"ppgnn/internal/gnn"
	"ppgnn/internal/paillier"
	"ppgnn/internal/parallel"
	"ppgnn/internal/partition"
	"ppgnn/internal/rtree"
)

// The traced pass. Algorithm 1 and Algorithm 2 are single calls
// (Group.BuildQuery, LSP.Process), so to see inside them from the outside
// the pass runs each seeded query four ways, serially:
//
//	(a) the real client calls, timed whole;
//	(b) the real round trip over TCP;
//	(c) the identical (q, locs) through in-process LSP.Process, at pool
//	    width 1 and at width GOMAXPROCS;
//	(d) a replay of both algorithms layer by layer through the layers'
//	    own exported functions, one span per call.
//
// Where the LSP does not rerandomise, (b), (c) and (d) must produce
// byte-identical answers — the replay is the same computation, not a model
// of it — and the sum of (d)'s layer spans over (c)'s lump is the coverage.

// Span names of the real calls and of the replay containers.
const (
	spanQuery         = "query"
	spanBuild         = "core.build_query"
	spanRoundtrip     = "transport.roundtrip"
	spanLSPw1         = "core.lsp_process"    // Workers = 1
	spanLSPwN         = "core.lsp_process_wn" // Workers = GOMAXPROCS (coalesced when the server is)
	spanDecrypt       = "core.decrypt_answer"
	spanReplayBuild   = "replay.build_query"
	spanReplayLSP     = "replay.lsp_process"
	spanReplayDecrypt = "replay.decrypt_answer"
)

// traceOut is everything the traced pass measured that is not a span.
type traceOut struct {
	tr      *tracer
	queries int

	overhead    []time.Duration // per query: round trip − in-process Process at the server's width
	scanned     []float64       // per query: POIs whose cost kGNN evaluated, all candidates
	candidates  int
	matrixRows  int
	sampleSize  int
	queryBytes  int
	answerBytes int
	insertDur   time.Duration
	deleteDur   time.Duration
	inserts     int
	deletes     int
	expUS       float64
	multiExpUS  float64
}

var ctxBG = context.Background()

// tracedPass replays n seeded queries and returns the spans. Any oracle
// mismatch or byte difference between the four ways is an error.
func (e *env) tracedPass(n int) (*traceOut, error) {
	out := &traceOut{tr: newTracer(), queries: n}
	tr := out.tr
	serial := parallel.New(1)

	if e.w.Service {
		// Admission as the server performs it per session.
		for i := 0; i < 64; i++ {
			id := tr.start("svc.admit", 0, 0)
			grant, err := e.service.Admit(tenantIDs[i%len(tenantIDs)])
			if err != nil {
				return nil, err
			}
			grant.Release()
			tr.end(id)
		}
	}
	{
		items := append([]rtree.Item(nil), e.items[0]...)
		tr.timed("rtree.bulk_build", 0, 0, func() { rtree.Bulk(items, rtree.DefaultMaxEntries) })
	}

	for i := 1; i <= n; i++ {
		c := e.clients[i%len(e.clients)]
		g := c.nextGroup()
		lsp := e.lsps[g.tenant]
		if e.churn != nil {
			insDur, delDur, err := e.writeBatch()
			if err != nil {
				return nil, err
			}
			out.inserts += e.w.Churn
			out.insertDur += insDur
			if delDur > 0 {
				out.deletes += e.w.Churn
				out.deleteDur += delDur
			}
		}
		plain := e.plainAnswer(g)
		root := tr.start(spanQuery, i, 0)

		// (a) the client's half, whole.
		id := tr.start(spanBuild, i, root)
		q, locs, err := g.g.BuildQuery(nil)
		tr.end(id)
		if err != nil {
			return nil, err
		}

		// (d) Algorithm 1 layer by layer.
		if err := e.replayBuild(tr, i, root, g); err != nil {
			return nil, err
		}

		var qb []byte
		var lbs [][]byte
		tr.timed("core.marshal_query", i, root, func() {
			qb = q.Marshal()
			for _, lm := range locs {
				lbs = append(lbs, lm.Marshal())
			}
		})
		out.queryBytes = len(qb)
		for _, lb := range lbs {
			out.queryBytes += len(lb)
		}

		// (b) over TCP. This and each of the three LSP runs below starts
		// from a collected heap, so that a collection of the (large) index
		// lands in none of them rather than in some.
		runtime.GC()
		id = tr.start(spanRoundtrip, i, root)
		ansTCP, err := c.pool.Process(q, locs)
		roundtrip := tr.end(id)
		if err != nil {
			return nil, err
		}

		var uerr error
		tr.timed("core.unmarshal_query", i, root, func() {
			if _, err := core.UnmarshalQuery(qb); err != nil {
				uerr = err
			}
			for _, lb := range lbs {
				if _, err := core.UnmarshalLocation(lb); err != nil {
					uerr = err
				}
			}
		})
		if uerr != nil {
			return nil, uerr
		}

		// (c) in process, narrow and wide.
		w1 := *lsp
		w1.Workers = 1
		w1.Coalesce = nil
		wN := *lsp
		wN.Workers = -1
		wide := wN.WithCoalescer(e.co)
		runtime.GC()
		id = tr.start(spanLSPw1, i, root)
		ansW1, err := w1.Process(q, locs, nil)
		durW1 := tr.end(id)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		id = tr.start(spanLSPwN, i, root)
		ansWN, err := wide.Process(q, locs, nil)
		durWN := tr.end(id)
		if err != nil {
			return nil, err
		}
		served := durW1
		if lsp.Workers != 1 || e.co != nil {
			served = durWN
		}
		out.overhead = append(out.overhead, roundtrip-served)

		// (d) Algorithm 2 layer by layer.
		runtime.GC()
		ansReplay, err := e.replayLSP(tr, i, root, out, g, q, locs, serial)
		if err != nil {
			return nil, err
		}
		var ab []byte
		tr.timed("core.marshal_answer", i, root, func() { ab = ansReplay.Marshal() })
		out.answerBytes = len(ab)

		// (a) again: the client's decryption, whole, then by layer.
		id = tr.start(spanDecrypt, i, root)
		recs, err := g.g.DecryptAnswer(ansTCP, nil)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		recsReplay, err := replayDecrypt(tr, i, root, g, ansTCP)
		if err != nil {
			return nil, err
		}
		tr.end(root)

		// The oracle, then the four-way identity.
		want, err := e.expected(g, plain, q, locs)
		if err != nil {
			return nil, err
		}
		if err := samePoints(recs, want, geo.UnitRect); err != nil {
			return nil, fmt.Errorf("traced query %d: %w", i, err)
		}
		if err := samePoints(recsReplay, want, geo.UnitRect); err != nil {
			return nil, fmt.Errorf("traced query %d, layered decryption: %w", i, err)
		}
		for name, ans := range map[string]*core.AnswerMsg{"in-process width 1": ansW1, "in-process wide": ansWN, "layer replay": ansReplay} {
			if !lsp.Rerandomize {
				if !bytes.Equal(ans.Marshal(), ansTCP.Marshal()) {
					return nil, fmt.Errorf("traced query %d: %s answer differs from the TCP answer byte for byte", i, name)
				}
				continue
			}
			// Fresh randomness makes the ciphertexts differ by design;
			// the plaintext under them must not.
			got, err := replayDecrypt(nil, i, 0, g, ans)
			if err != nil {
				return nil, err
			}
			if err := samePoints(got, want, geo.UnitRect); err != nil {
				return nil, fmt.Errorf("traced query %d: %s answer: %w", i, name, err)
			}
		}

		if i == 1 {
			out.timeKernels(q, g)
		}
	}
	return out, nil
}

// replayDecrypt is DecryptAnswer through the layers' own functions: the
// batch decryption (layered for the OPT degree-2 answer) and the decoding.
func replayDecrypt(tr *tracer, qi, root int, g *group, ans *core.AnswerMsg) ([]encode.Record, error) {
	cts := make([]*paillier.Ciphertext, len(ans.Cts))
	for j, ct := range ans.Cts {
		cts[j] = &paillier.Ciphertext{C: ct, S: ans.Degree}
	}
	codec := encode.Codec{ModulusBits: g.g.Key.N.BitLen(), IncludeID: g.g.Params.IncludeIDs}
	parent := tr.start(spanReplayDecrypt, qi, root)
	defer tr.end(parent)
	var (
		ints []*big.Int
		recs []encode.Record
		err  error
	)
	tr.timed("paillier.decrypt", qi, parent, func() {
		if ans.Degree == 2 {
			ints, err = g.g.Key.DecryptLayeredBatch(ctxBG, nil, cts, 2)
		} else {
			ints, err = g.g.Key.DecryptBatch(ctxBG, nil, cts)
		}
	})
	if err != nil {
		return nil, err
	}
	tr.timed("encode.decode", qi, parent, func() { recs, err = codec.Decode(ints) })
	return recs, err
}

// replayBuild is Algorithm 1 through the layers' own functions: the
// partition solve, every user's dummy location set, and the indicator
// encryption, in the configuration the group itself uses.
func (e *env) replayBuild(tr *tracer, qi, root int, g *group) error {
	p := g.g.Params
	pk := &g.g.Key.PublicKey
	// The group's randomness pools are private to it; the replay fills
	// pools of its own, outside the span, as Precompute does offline.
	type vec struct {
		n, degree int
		pre       *paillier.Precomputer
	}
	vecs := []vec{{n: g.part.DeltaPrime, degree: 1}}
	if p.Variant == core.VariantOPT {
		omega := core.OptimalOmega(g.part.DeltaPrime)
		vecs = []vec{{n: (g.part.DeltaPrime + omega - 1) / omega, degree: 1}, {n: omega, degree: 2}}
	}
	if e.w.Service {
		for i := range vecs {
			pre, err := pk.NewPrecomputer(vecs[i].degree)
			if err != nil {
				return err
			}
			if err := pre.Fill(nil, vecs[i].n); err != nil {
				return err
			}
			vecs[i].pre = pre
		}
	}

	parent := tr.start(spanReplayBuild, qi, root)
	defer tr.end(parent)
	var err error
	tr.timed("partition.solve", qi, parent, func() { _, err = partition.Solve(p.N, p.D, p.Delta) })
	if err != nil {
		return err
	}
	if !g.g.CacheSets {
		rng := rand.New(rand.NewSource(int64(qi)))
		tr.timed("dummy.location_sets", qi, parent, func() {
			for u := 0; u < p.N; u++ {
				dummy.Uniform{}.LocationSet(rng, g.real[u], p.D, u%p.D, p.Space)
			}
		})
	}
	tr.timed("paillier.encrypt_indicator", qi, parent, func() {
		zero, one := big.NewInt(0), big.NewInt(1)
		for _, v := range vecs {
			ms := make([]*big.Int, v.n)
			for j := range ms {
				ms[j] = zero
			}
			ms[0] = one
			switch {
			case e.encCache != nil:
				_, _, err = e.encCache.EncryptBatch(ctxBG, nil, nil, pk, v.pre, ms, v.degree)
			default:
				_, err = pk.EncryptBatch(ctxBG, nil, nil, ms, v.degree)
			}
			if err != nil {
				return
			}
		}
	})
	return err
}

// replayLSP is Algorithm 2 through the layers' own functions, serially:
// candidate enumeration, then per candidate kGNN, sanitation and encoding,
// then the private selection and the rerandomisation.
func (e *env) replayLSP(tr *tracer, qi, root int, out *traceOut, g *group, q *core.QueryMsg, locs []*core.LocationMsg, serial *parallel.Pool) (*core.AnswerMsg, error) {
	parent := tr.start(spanReplayLSP, qi, root)
	defer tr.end(parent)

	lsp := e.lsps[g.tenant]
	n := len(locs)
	pk := paillier.NewPublicKey(q.PK)
	ordered := make([][]geo.Point, n)
	for _, lm := range locs {
		ordered[lm.UserID] = lm.Set
	}
	var cands [][]geo.Point
	var err error
	tr.timed("partition.candidates", qi, parent, func() { cands, err = g.part.Candidates(ordered) })
	if err != nil {
		return nil, err
	}
	out.candidates = len(cands)

	mbm := &gnn.MBM{Tree: lsp.Tree(), Agg: q.Agg}
	codec := encode.Codec{ModulusBits: q.PK.BitLen(), IncludeID: q.Include}
	sanitising := q.Sanitize && n > 1
	if sanitising {
		out.sampleSize = sanitizeConfig(lsp, q).SampleSize()
	}
	encoded := make([][]*big.Int, len(cands))
	scanned := 0
	for t, cand := range cands {
		id := tr.start("gnn.search", qi, parent)
		res, sc := mbm.SearchBounded(cand, q.K, math.Inf(1))
		tr.end(id)
		scanned += sc
		if sanitising {
			id = tr.start("sanitize.sanitize", qi, parent)
			res = sanitised(lsp, q, t, res, cand)
			tr.end(id)
		}
		id = tr.start("encode.encode", qi, parent)
		records := make([]encode.Record, len(res))
		for j, r := range res {
			records[j] = encode.RecordOf(r.Item.ID, r.Item.P, lsp.Space)
		}
		encoded[t] = codec.Encode(records)
		tr.end(id)
	}
	out.scanned = append(out.scanned, float64(scanned))

	m := 0
	id := tr.start("encode.encode", qi, parent)
	for _, ints := range encoded {
		if len(ints) > m {
			m = len(ints)
		}
	}
	for t := range encoded {
		encoded[t] = encode.Pad(encoded[t], m)
	}
	tr.end(id)
	out.matrixRows = m

	wrap := func(cs []*big.Int, s int) []*paillier.Ciphertext {
		v := make([]*paillier.Ciphertext, len(cs))
		for j, c := range cs {
			v[j] = &paillier.Ciphertext{C: c, S: s}
		}
		return v
	}
	var cts []*paillier.Ciphertext
	degree := 1
	if q.Variant == core.VariantOPT {
		degree = 2
		v1, v2 := wrap(q.V1, 1), wrap(q.V2, 2)
		zero := make([]*big.Int, m)
		for j := range zero {
			zero[j] = new(big.Int)
		}
		for len(encoded) < len(v1)*len(v2) {
			encoded = append(encoded, zero)
		}
		tr.timed("paillier.select", qi, parent, func() { cts, err = pk.LayeredSelectBatch(ctxBG, serial, encoded, v1, v2) })
	} else {
		v := wrap(q.V, 1)
		rows := make([][]*big.Int, m)
		for j := range rows {
			rows[j] = make([]*big.Int, len(encoded))
			for t := range encoded {
				rows[j][t] = encoded[t][j]
			}
		}
		tr.timed("paillier.select", qi, parent, func() { cts, err = pk.MatSelectBatch(ctxBG, serial, rows, v) })
	}
	if err != nil {
		return nil, err
	}
	if lsp.Rerandomize {
		tr.timed("paillier.rerandomize", qi, parent, func() {
			if lsp.RerandPools != nil {
				var pre *paillier.Precomputer
				if pre, err = lsp.RerandPools.For(pk, degree); err == nil {
					cts, _, err = pre.RerandomizeBatch(ctxBG, serial, nil, cts)
				}
				return
			}
			cts, err = pk.RerandomizeBatch(ctxBG, serial, nil, cts)
		})
		if err != nil {
			return nil, err
		}
	}
	ints := make([]*big.Int, len(cts))
	for j, ct := range cts {
		ints[j] = ct.C
	}
	return core.NewAnswerMsg(pk, degree, ints), nil
}

// timeKernels times the two modmath kernels under the crypto layers at
// this workload's own modulus and term count: one full-width
// exponentiation mod N^(s+1) (an encryption's r^N), and one
// multi-exponentiation over the indicator vector (a selection row).
func (out *traceOut) timeKernels(q *core.QueryMsg, g *group) {
	pk := &g.g.Key.PublicKey
	bases := q.V
	if q.Variant == core.VariantOPT {
		bases = q.V1
	}
	ctx := pk.Ctx(2)
	rng := rand.New(rand.NewSource(1))
	exps := make([]*big.Int, len(bases))
	limit := new(big.Int).Lsh(big.NewInt(1), uint(q.PK.BitLen()-1))
	for i := range exps {
		exps[i] = new(big.Int).Rand(rng, limit)
	}
	var expT, mexpT []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		ctx.Exp(bases[0], q.PK)
		t1 := time.Now()
		if _, err := ctx.MultiExp(bases, exps); err != nil {
			return
		}
		expT = append(expT, us(t1.Sub(t0)))
		mexpT = append(mexpT, us(time.Since(t1)))
	}
	out.expUS, out.multiExpUS = median(expT), median(mexpT)
}
