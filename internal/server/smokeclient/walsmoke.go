// WAL durability smoke: -wal-prepare mutates a durable dataset and
// records what any honest restart must reproduce; -wal-verify runs
// after a SIGKILL + restart against the same -wal-dir and fails unless
// the exact epoch and the mutated-edge-sensitive answer survived.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"reflect"
	"time"

	"ktg/internal/client"
	"ktg/internal/server"
)

// walState is what -wal-prepare persists and -wal-verify replays: the
// query that is sensitive to the mutated edge, the epoch the mutation
// acked at, and the answer computed on that epoch.
type walState struct {
	Dataset string         `json:"dataset"`
	Request client.Request `json:"request"`
	Epoch   uint64         `json:"epoch"`
	Groups  []client.Group `json:"groups"`
}

// walPrepare drives a durable dataset to a state a crash cannot be
// allowed to lose: it queries, permanently flips one edge between two
// members of the answer (delete if present, insert otherwise — never
// both, so the topology change survives), re-queries on the new epoch,
// and writes the expected post-restart state to stateFile.
func walPrepare(ctx context.Context, cl *client.Client, addr, dataset, stateFile string) {
	req := &client.Request{
		Dataset:   dataset,
		Keywords:  []string{"kw0000", "kw0001", "kw0002", "kw0003"},
		GroupSize: 3,
		Tenuity:   2,
		TopN:      3,
	}
	first, err := cl.Query(ctx, req)
	if err != nil {
		fail("wal-prepare: /v1/query: %v", err)
	}
	if len(first.Groups) == 0 || len(first.Groups[0].Members) < 2 {
		fail("wal-prepare: no 2-member group to mutate around: %+v", first.Groups)
	}
	u := int64(first.Groups[0].Members[0])
	v := int64(first.Groups[0].Members[1])

	// One permanent topology flip: try the delete; if the edge was not
	// there (ignored), insert it instead. Exactly one op applies either
	// way, so the ack mints exactly one epoch the restart must preserve.
	mres, err := cl.MutateEdges(ctx, &client.MutationRequest{
		Dataset: dataset,
		Edges:   []client.EdgeOp{{Op: "delete", U: u, V: v}},
	})
	if err != nil {
		fail("wal-prepare: /v1/edges delete: %v", err)
	}
	if !mres.Swapped {
		mres, err = cl.MutateEdges(ctx, &client.MutationRequest{
			Dataset: dataset,
			Edges:   []client.EdgeOp{{Op: "insert", U: u, V: v}},
		})
		if err != nil {
			fail("wal-prepare: /v1/edges insert: %v", err)
		}
	}
	if !mres.Swapped || mres.Applied != 1 {
		fail("wal-prepare: edge flip did not swap (swapped=%v applied=%d ignored=%d)",
			mres.Swapped, mres.Applied, mres.Ignored)
	}

	after, err := cl.Query(ctx, req)
	if err != nil {
		fail("wal-prepare: /v1/query after mutation: %v", err)
	}
	if after.Epoch != mres.Epoch {
		fail("wal-prepare: post-mutation answer reports epoch %d, want %d", after.Epoch, mres.Epoch)
	}

	data, err := json.MarshalIndent(walState{
		Dataset: dataset,
		Request: *req,
		Epoch:   mres.Epoch,
		Groups:  after.Groups,
	}, "", "  ")
	if err != nil {
		fail("wal-prepare: encoding state: %v", err)
	}
	if err := os.WriteFile(stateFile, append(data, '\n'), 0o644); err != nil {
		fail("wal-prepare: writing %s: %v", stateFile, err)
	}
	fmt.Printf("smokeclient: wal-prepare ok (epoch %d recorded in %s)\n", mres.Epoch, stateFile)
}

// walVerify is the post-restart half: it waits out WAL replay (503
// {"replaying": true} answers are expected, not errors), then demands
// the dataset advertise durability with a recovery stamp, the exact
// pre-crash epoch, and byte-for-byte the same answer to the recorded
// query. Any drift means an acked mutation was lost — exit 1.
func walVerify(addr, stateFile string) {
	raw, err := os.ReadFile(stateFile)
	if err != nil {
		fail("wal-verify: reading %s: %v", stateFile, err)
	}
	var want walState
	if err := json.Unmarshal(raw, &want); err != nil {
		fail("wal-verify: decoding %s: %v", stateFile, err)
	}

	waitReady(addr, 60*time.Second)

	// The dataset must say it is durable and carry the recovery stamp;
	// its epoch must be exactly the last acked pre-crash epoch.
	ds := durableDataset(addr, want.Dataset)
	if !ds.Durable || ds.WAL == nil {
		fail("wal-verify: /v1/datasets reports %q without a durable/wal stamp after restart", want.Dataset)
	}
	if ds.Epoch != want.Epoch {
		fail("wal-verify: recovered epoch %d, want exactly %d — acked mutations lost or invented", ds.Epoch, want.Epoch)
	}
	if ds.WAL.Epoch != want.Epoch {
		fail("wal-verify: recovery stamp says epoch %d, dataset serves %d", ds.WAL.Epoch, want.Epoch)
	}

	cl, err := client.New(client.Config{
		BaseURL:        "http://" + addr,
		AttemptTimeout: 60 * time.Second,
	})
	if err != nil {
		fail("wal-verify: building client: %v", err)
	}
	res, err := cl.Query(context.Background(), &want.Request)
	if err != nil {
		fail("wal-verify: /v1/query: %v", err)
	}
	if res.Epoch != want.Epoch {
		fail("wal-verify: answer computed on epoch %d, want %d", res.Epoch, want.Epoch)
	}
	if !reflect.DeepEqual(res.Groups, want.Groups) {
		fail("wal-verify: answer changed across the crash:\n  before: %+v\n  after:  %+v", want.Groups, res.Groups)
	}
	fmt.Printf("smokeclient: wal-verify ok (epoch %d and answer survived the crash)\n", want.Epoch)
}

// waitReady polls /readyz until it answers 200, treating 503s —
// including {"replaying": true, "records_remaining": N} during WAL
// replay — and connection errors (the process may still be between
// exec and listen) as "not yet". It also proves the replaying shape:
// if a 503 body claims anything other than replaying or draining
// semantics the smoke fails fast.
func waitReady(addr string, patience time.Duration) {
	deadline := time.Now().Add(patience)
	sawReplaying := false
	for {
		res, err := http.Get("http://" + addr + "/readyz")
		if err == nil {
			body, _ := io.ReadAll(res.Body)
			res.Body.Close()
			if res.StatusCode == http.StatusOK {
				if sawReplaying {
					fmt.Println("smokeclient: observed /readyz 503 replaying before ready")
				}
				return
			}
			if res.StatusCode != http.StatusServiceUnavailable {
				fail("wal-verify: /readyz: unexpected status %d: %s", res.StatusCode, body)
			}
			var wire struct {
				Replaying bool `json:"replaying"`
			}
			if json.Unmarshal(body, &wire) == nil && wire.Replaying {
				sawReplaying = true
			}
		}
		if time.Now().After(deadline) {
			fail("wal-verify: server not ready after %v", patience)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// durableDataset returns the dataset's row of /v1/datasets.
func durableDataset(addr, dataset string) server.DatasetInfo {
	res, err := http.Get("http://" + addr + "/v1/datasets")
	if err != nil {
		fail("wal-verify: /v1/datasets: %v", err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		fail("wal-verify: /v1/datasets: status %d", res.StatusCode)
	}
	var list server.DatasetList
	if err := json.NewDecoder(res.Body).Decode(&list); err != nil {
		fail("wal-verify: decoding /v1/datasets: %v", err)
	}
	for _, d := range list.Datasets {
		if d.Name == dataset {
			return d
		}
	}
	fail("wal-verify: dataset %q not in /v1/datasets", dataset)
	return server.DatasetInfo{}
}
