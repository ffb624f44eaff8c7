package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"ktg"
)

// maxBodyBytes bounds request bodies; a KTG query is a few hundred
// bytes, so 1 MiB is generous.
const maxBodyBytes = 1 << 20

// The request-shape limits. A server and a coordinator both validate
// requests through validate, so they reject exactly the same requests.
const (
	maxKeywords  = 64
	maxGroupSize = 16
	maxTopN      = 100
)

// Algorithm names accepted on the wire, mapped onto the public enum.
// "greedy" selects the approximate single-pass search instead.
var wireAlgorithms = map[string]ktg.Algorithm{
	"":        ktg.AlgVKCDeg,
	"vkc-deg": ktg.AlgVKCDeg,
	"vkc":     ktg.AlgVKC,
	"qkc":     ktg.AlgQKC,
	"brute":   ktg.AlgBruteForce,
}

// AlgorithmNames lists the algorithm values a request may carry, in
// display order.
func AlgorithmNames() []string {
	return []string{"vkc-deg", "vkc", "qkc", "brute", "greedy"}
}

// QueryRequest is the JSON body of POST /v1/query, POST /v1/diverse and
// POST /v1/query/partial, for the server, the coordinator and the
// client alike. It mirrors the public ktg.Query / ktg.SearchOptions
// surface; fields not listed here (tracing, exclusions) are
// server-controlled.
type QueryRequest struct {
	// Dataset names one of the datasets the server was started with.
	Dataset string `json:"dataset"`
	// Keywords is the query keyword set W_Q.
	Keywords []string `json:"keywords"`
	// GroupSize is p, Tenuity is k, TopN is N (default 1).
	GroupSize int `json:"group_size"`
	Tenuity   int `json:"tenuity"`
	TopN      int `json:"top_n,omitempty"`
	// Algorithm is one of AlgorithmNames(); empty means "vkc-deg".
	Algorithm string `json:"algorithm,omitempty"`
	// Gamma weighs coverage against diversity for /v1/diverse (default
	// 0.5). Rejected on /v1/query.
	Gamma *float64 `json:"gamma,omitempty"`
	// Seeds bounds the greedy seed set (algorithm "greedy" only;
	// 0 = automatic).
	Seeds int `json:"seeds,omitempty"`
	// TimeoutMillis bounds the search wall clock. 0 inherits the server
	// default; the server also enforces a ceiling. On expiry the best
	// groups found so far are returned with "partial": true.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// MaxNodes bounds branch-and-bound effort; 0 means unlimited. Like
	// a timeout, exhaustion yields a partial result.
	MaxNodes int64 `json:"max_nodes,omitempty"`
	// SliceIndex/SliceCount select a strided slice of the candidate
	// frontier for POST /v1/query/partial (the scatter-gather worker
	// endpoint); rejected everywhere else. SliceCount is the partition
	// size, SliceIndex in [0, SliceCount).
	SliceIndex int `json:"slice_index,omitempty"`
	SliceCount int `json:"slice_count,omitempty"`
	// Explain asks for a structured explain plan of this execution
	// (bound trajectory, per-depth prune/filter breakdown, live-search
	// timings) in the response. Explain runs bypass the result cache
	// and singleflight — the plan must describe the search that
	// actually ran for this request — so they are never cached and
	// never shared.
	Explain bool `json:"explain,omitempty"`
}

// QueryResponse is the JSON body of a successful query, from a server
// or a coordinator. Cached entries are shared between requests, so
// handlers treat it as immutable and copy the struct before stamping
// per-request fields (Cache).
type QueryResponse struct {
	Dataset   string      `json:"dataset"`
	Algorithm string      `json:"algorithm"`
	Groups    []ktg.Group `json:"groups"`
	// Diversity/MinQKC/Score are present for /v1/diverse only.
	Diversity *float64 `json:"diversity,omitempty"`
	MinQKC    *float64 `json:"min_qkc,omitempty"`
	Score     *float64 `json:"score,omitempty"`
	// Partial is true when the search hit its time or node budget; the
	// groups are the best found within it. PartialReason is "deadline"
	// or "budget".
	Partial       bool   `json:"partial,omitempty"`
	PartialReason string `json:"partial_reason,omitempty"`
	// Degraded is true when the server downgraded an exact search to the
	// greedy algorithm under load pressure; DegradedReason is
	// "queue_wait" or "deadline_pressure". Degraded responses are never
	// cached — retry later for the exact answer.
	Degraded       bool            `json:"degraded,omitempty"`
	DegradedReason string          `json:"degraded_reason,omitempty"`
	Stats          ktg.SearchStats `json:"stats"`
	// Epoch is the dataset epoch the answer was computed on (mutable
	// datasets only; omitted for static datasets). A "hit" response
	// reports the epoch of the cached computation — invalidation
	// guarantees it is still the current answer, but the stamp stays
	// honest about provenance.
	Epoch uint64 `json:"epoch,omitempty"`
	// Explain is the structured explain plan, present only when the
	// request asked for it. Epoch-stamped on live datasets.
	Explain *ktg.Explain `json:"explain,omitempty"`
	// Cache reports how this response was produced: "miss" (a search
	// ran for this request), "hit" (served from the result cache),
	// "shared" (joined an identical in-flight search), or "bypass"
	// (an explain run, which never touches the cache).
	Cache string `json:"cache"`
	// ShardsTotal is a coordinator's fleet size; ShardsFailed counts the
	// shards that gave no usable answer after client retries. A failed
	// shard makes a scattered answer "partial": true. A single node sets
	// neither.
	ShardsTotal  int `json:"shards_total,omitempty"`
	ShardsFailed int `json:"shards_failed,omitempty"`
}

// APIError is a structured 4xx/5xx: it renders as
// {"error": {"code": ..., "message": ...}} with the given HTTP status.
type APIError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *APIError) Error() string { return e.Message }

func badRequest(code, format string, args ...any) *APIError {
	return &APIError{Status: http.StatusBadRequest, Code: code, Message: fmt.Sprintf(format, args...)}
}

// decodeRequest parses and strictly validates a query request body.
// Unknown JSON fields are rejected so client typos (e.g. "groupsize")
// fail loudly instead of silently applying defaults.
func decodeRequest(r *http.Request, kind string) (*QueryRequest, *APIError) {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	var req QueryRequest
	if err := dec.Decode(&req); err != nil {
		return nil, badRequest("malformed_body", "invalid JSON body: %v", err)
	}
	if dec.More() {
		return nil, badRequest("malformed_body", "request body must contain exactly one JSON object")
	}
	if err := req.validate(kind); err != nil {
		return nil, err
	}
	return &req, nil
}

// DecodeRequest parses and validates a client-facing query request body
// exactly as the server's /v1/query (diverse=false) or /v1/diverse
// (diverse=true) endpoint would. The shard coordinator reuses it so its
// front-end surface rejects precisely what a single-node server would.
func DecodeRequest(r *http.Request, diverse bool) (*QueryRequest, *APIError) {
	kind := kindQuery
	if diverse {
		kind = kindDiverse
	}
	return decodeRequest(r, kind)
}

func (req *QueryRequest) validate(kind string) *APIError {
	diverse := kind == kindDiverse
	if req.Dataset == "" {
		return badRequest("missing_dataset", "dataset is required")
	}
	if len(req.Keywords) == 0 {
		return badRequest("missing_keywords", "keywords must list at least one keyword")
	}
	if len(req.Keywords) > maxKeywords {
		return badRequest("too_many_keywords", "keywords lists %d entries, server limit is %d", len(req.Keywords), maxKeywords)
	}
	for i, kw := range req.Keywords {
		if strings.TrimSpace(kw) == "" {
			return badRequest("empty_keyword", "keywords[%d] is empty", i)
		}
	}
	if req.GroupSize < 1 {
		return badRequest("invalid_group_size", "group_size must be at least 1, got %d", req.GroupSize)
	}
	if req.GroupSize > maxGroupSize {
		return badRequest("invalid_group_size", "group_size %d exceeds server limit %d", req.GroupSize, maxGroupSize)
	}
	if req.Tenuity < 0 {
		return badRequest("invalid_tenuity", "tenuity must be non-negative, got %d", req.Tenuity)
	}
	if req.TopN < 0 {
		return badRequest("invalid_top_n", "top_n must be non-negative, got %d (0 means default)", req.TopN)
	}
	if req.TopN == 0 {
		req.TopN = 1
	}
	if req.TopN > maxTopN {
		return badRequest("invalid_top_n", "top_n %d exceeds server limit %d", req.TopN, maxTopN)
	}
	if _, ok := wireAlgorithms[req.Algorithm]; !ok && req.Algorithm != "greedy" {
		return badRequest("unknown_algorithm", "unknown algorithm %q (valid: %s)", req.Algorithm, strings.Join(AlgorithmNames(), ", "))
	}
	if req.Seeds < 0 {
		return badRequest("invalid_seeds", "seeds must be non-negative, got %d", req.Seeds)
	}
	if req.Seeds > 0 && req.Algorithm != "greedy" {
		return badRequest("invalid_seeds", "seeds applies only to algorithm \"greedy\"")
	}
	if req.TimeoutMillis < 0 {
		return badRequest("invalid_timeout", "timeout_ms must be non-negative, got %d", req.TimeoutMillis)
	}
	if req.MaxNodes < 0 {
		return badRequest("invalid_max_nodes", "max_nodes must be non-negative, got %d", req.MaxNodes)
	}
	if req.Gamma != nil {
		if !diverse {
			return badRequest("invalid_gamma", "gamma applies only to /v1/diverse")
		}
		if *req.Gamma < 0 || *req.Gamma > 1 {
			return badRequest("invalid_gamma", "gamma must be in [0, 1], got %g", *req.Gamma)
		}
	}
	if diverse && req.Algorithm == "greedy" {
		return badRequest("unknown_algorithm", "algorithm \"greedy\" is not available on /v1/diverse")
	}
	if kind == kindPartial {
		if req.SliceCount < 1 {
			return badRequest("invalid_slice", "slice_count must be at least 1, got %d", req.SliceCount)
		}
		if req.SliceIndex < 0 || req.SliceIndex >= req.SliceCount {
			return badRequest("invalid_slice", "slice_index %d out of range [0,%d)", req.SliceIndex, req.SliceCount)
		}
		// Only the branch-and-bound algorithms decompose into mergeable
		// frontier slices; greedy and brute answers are forwarded whole.
		if req.Algorithm == "greedy" || req.Algorithm == "brute" {
			return badRequest("unknown_algorithm", "algorithm %q is not available on /v1/query/partial", req.Algorithm)
		}
	} else if req.SliceCount != 0 || req.SliceIndex != 0 {
		return badRequest("invalid_slice", "slice_index/slice_count apply only to /v1/query/partial")
	}
	return nil
}

// uniqKeywords returns the request's keywords sorted and de-duplicated —
// the canonical set used by the cache key and by mutation-scoped cache
// invalidation.
func (req *QueryRequest) uniqKeywords() []string {
	kws := append([]string(nil), req.Keywords...)
	sort.Strings(kws)
	uniq := kws[:0]
	for i, kw := range kws {
		if i == 0 || kw != kws[i-1] {
			uniq = append(uniq, kw)
		}
	}
	return uniq
}

// cacheKey canonicalizes the request into a stable hash so that
// semantically identical queries share one cache slot. Keywords are
// sorted and de-duplicated (coverage is a set property). Budgets
// (timeout_ms, max_nodes) are deliberately NOT part of the key: only
// complete results are ever cached, and a complete result is
// budget-independent. The epoch is deliberately NOT part of the key
// either — mutations eagerly invalidate affected entries instead, so
// surviving entries are valid for the current epoch. kind separates
// /v1/query from /v1/diverse.
func (req *QueryRequest) cacheKey(kind string) string {
	uniq := req.uniqKeywords()
	algo := req.Algorithm
	if algo == "" {
		algo = "vkc-deg"
	}
	gamma := 0.5
	if req.Gamma != nil {
		gamma = *req.Gamma
	}
	var b strings.Builder
	b.WriteString(kind)
	b.WriteByte('|')
	b.WriteString(req.Dataset)
	b.WriteByte('|')
	b.WriteString(algo)
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(req.GroupSize))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(req.Tenuity))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(req.TopN))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(req.Seeds))
	b.WriteByte('|')
	if kind == kindDiverse {
		b.WriteString(strconv.FormatFloat(gamma, 'g', -1, 64))
	}
	for _, kw := range uniq {
		b.WriteByte('|')
		b.WriteString(kw)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}
