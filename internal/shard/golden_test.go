package shard

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"d3l"
	"d3l/internal/datagen"
	"d3l/internal/faultproxy"
	"d3l/internal/server"
)

// The sharded golden suite: the acceptance criterion that TopK, batch
// and query answers served from a sharded set — in-process (`d3l serve
// -shards N`) and through the HTTP coordinator (`d3l coordinator`) —
// are byte-identical to the committed monolith fixtures under
// internal/server/testdata/golden. The corpus and targets replicate
// the server suite's construction exactly; this suite never rewrites
// the fixtures (they are the monolith's — run the server suite with
// -update to regenerate, and this suite will hold the sharded paths to
// the new bytes).

// goldenFixtureDir reaches the server package's committed fixtures.
var goldenFixtureDir = filepath.Join("..", "server", "testdata", "golden")

const goldenK = 5

// shardGoldenConfig mirrors internal/server's goldenConfig — the two
// must stay in lockstep or the byte comparison is vacuous.
func shardGoldenConfig() datagen.SyntheticConfig {
	return datagen.SyntheticConfig{
		Seed:          1307,
		BaseTables:    5,
		DerivedTables: 20,
		MinRows:       30,
		MaxRows:       60,
		RenameProb:    0.25,
	}
}

type shardGoldenWorld struct {
	lake    *d3l.Lake
	targets []server.TableJSON
}

var (
	sgOnce sync.Once
	sgW    *shardGoldenWorld
	sgErr  error
)

func shardGolden(t *testing.T) *shardGoldenWorld {
	t.Helper()
	sgOnce.Do(func() { sgW, sgErr = buildShardGoldenWorld() })
	if sgErr != nil {
		t.Fatal(sgErr)
	}
	return sgW
}

// buildShardGoldenWorld rebuilds the server suite's corpus: the
// datagen lake round-tripped through CSV (fixtures were generated from
// the round-tripped form), targets every fourth name-sorted table.
func buildShardGoldenWorld() (*shardGoldenWorld, error) {
	lake, _, err := datagen.Synthetic(shardGoldenConfig())
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "d3l-shard-golden-*")
	if err != nil {
		return nil, err
	}
	if err := d3l.SaveLakeDir(lake, dir); err != nil {
		return nil, err
	}
	csvLake, err := d3l.LoadLakeDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, csvLake.Len())
	for _, tb := range csvLake.Tables() {
		names = append(names, tb.Name)
	}
	sort.Strings(names)
	var targets []server.TableJSON
	for i := 0; i < len(names) && len(targets) < 4; i += 4 {
		targets = append(targets, tableToWire(csvLake.ByName(names[i])))
	}
	return &shardGoldenWorld{lake: csvLake, targets: targets}, nil
}

// serveSet builds an N-shard set over the golden lake and mounts it on
// the full serving stack.
func serveSet(t *testing.T, lake *d3l.Lake, n int) *httptest.Server {
	t.Helper()
	set, err := BuildSet(lake, n, d3l.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(set, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return hs
}

// serveCoordinator builds an N-shard set, serves every shard as its
// own HTTP replica, and fronts them with the thin coordinator on the
// full serving stack.
func serveCoordinator(t *testing.T, lake *d3l.Lake, n int) *httptest.Server {
	t.Helper()
	set, err := BuildSet(lake, n, d3l.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	remote, _ := serveRemote(t, set, RemoteConfig{})
	cs, err := server.New(remote, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	coord := httptest.NewServer(cs)
	t.Cleanup(coord.Close)
	return coord
}

// serveReplicatedCoordinator is serveCoordinator with two replicas
// per shard, each behind a faultproxy; the preferred replica of every
// shard answers nothing but injected 503s, so every golden byte the
// coordinator returns had to travel through a failover.
func serveReplicatedCoordinator(t *testing.T, lake *d3l.Lake, n int) *httptest.Server {
	t.Helper()
	urls := make([]string, n)
	var preferred []*faultproxy.Proxy
	for ri := 0; ri < 2; ri++ {
		set, err := BuildSet(lake, n, d3l.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for si := 0; si < n; si++ {
			rs, err := server.New(set.Shard(si), server.Config{})
			if err != nil {
				t.Fatal(err)
			}
			backend := httptest.NewServer(rs)
			t.Cleanup(backend.Close)
			proxy, err := faultproxy.New(backend.URL, 1307)
			if err != nil {
				t.Fatal(err)
			}
			if ri == 0 {
				preferred = append(preferred, proxy)
			}
			front := httptest.NewServer(proxy)
			t.Cleanup(front.Close)
			if urls[si] == "" {
				urls[si] = front.URL
			} else {
				urls[si] += "," + front.URL
			}
		}
	}
	remote, err := NewRemote(urls, RemoteConfig{
		Retries:    2,
		RetryDelay: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Armed only after construction: the startup health poll must see
	// healthy replicas so these faults hit live traffic, not probes.
	for _, proxy := range preferred {
		proxy.SetRules(faultproxy.Rules{ErrorProb: 1})
	}
	t.Cleanup(func() { remote.Close() })
	cs, err := server.New(remote, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	coord := httptest.NewServer(cs)
	t.Cleanup(coord.Close)
	return coord
}

// assertFixture compares a response body against a committed monolith
// fixture byte-for-byte (after the same indentation the fixtures were
// written with).
func assertFixture(t *testing.T, name string, body []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join(goldenFixtureDir, name+".json"))
	if err != nil {
		t.Fatalf("%v — generate fixtures with `go test ./internal/server -run Golden -update`", err)
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, body, "", "  "); err != nil {
		t.Fatal(err)
	}
	got := append(buf.Bytes(), '\n')
	if !bytes.Equal(got, want) {
		t.Fatalf("sharded answer diverged from monolith fixture %s.json:\nwant:\n%s\ngot:\n%s", name, want, got)
	}
}

// goldenEndpoints drives topk, query and batch through a sharded
// serving stack and holds every byte to the monolith fixtures.
func goldenEndpoints(t *testing.T, base string, w *shardGoldenWorld) {
	t.Helper()
	for _, target := range w.targets {
		status, body := postJSON(t, base+"/v1/topk", server.TopKRequest{Table: target, K: kptr(goldenK)})
		if status != http.StatusOK {
			t.Fatalf("topk %s: status %d: %s", target.Name, status, body)
		}
		assertFixture(t, "topk_"+target.Name, body)

		k := goldenK
		status, body = postJSON(t, base+"/v1/query", server.QueryRequest{Table: target, K: &k})
		if status != http.StatusOK {
			t.Fatalf("query %s: status %d: %s", target.Name, status, body)
		}
		assertFixture(t, "query_"+target.Name, body)
	}
	status, body := postJSON(t, base+"/v1/batch", server.BatchRequest{Tables: w.targets, K: kptr(goldenK)})
	if status != http.StatusOK {
		t.Fatalf("batch: status %d: %s", status, body)
	}
	assertFixture(t, "batch", body)
}

func TestGoldenShardedSet(t *testing.T) {
	w := shardGolden(t)
	for _, n := range []int{1, 2, 3} {
		t.Run("shards="+itoa(n), func(t *testing.T) {
			hs := serveSet(t, w.lake, n)
			goldenEndpoints(t, hs.URL, w)
		})
	}
}

func TestGoldenCoordinator(t *testing.T) {
	w := shardGolden(t)
	for _, n := range []int{2, 3} {
		t.Run("shards="+itoa(n), func(t *testing.T) {
			coord := serveCoordinator(t, w.lake, n)
			goldenEndpoints(t, coord.URL, w)
		})
	}
}

// TestGoldenReplicatedCoordinator is the replica-group acceptance
// criterion: with two replicas per shard and the preferred replica of
// every shard hard-failing, the coordinator's answers stay
// byte-identical to the committed monolith fixtures.
func TestGoldenReplicatedCoordinator(t *testing.T) {
	w := shardGolden(t)
	for _, n := range []int{2, 3} {
		t.Run("shards="+itoa(n), func(t *testing.T) {
			coord := serveReplicatedCoordinator(t, w.lake, n)
			goldenEndpoints(t, coord.URL, w)
		})
	}
}

// TestGoldenShardedJoins pins the sharded joins contract: /v1/joins
// answers 501 with the documented code instead of a wrong ranking.
func TestGoldenShardedJoins(t *testing.T) {
	w := shardGolden(t)
	hs := serveSet(t, w.lake, 2)
	status, body := postJSON(t, hs.URL+"/v1/joins", server.TopKRequest{Table: w.targets[0], K: kptr(goldenK)})
	if status != http.StatusNotImplemented {
		t.Fatalf("joins over shards: status %d, want 501: %s", status, body)
	}
	var eb server.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Code != server.CodeUnsupported {
		t.Fatalf("joins over shards: code %q, want %q", eb.Error.Code, server.CodeUnsupported)
	}
}
