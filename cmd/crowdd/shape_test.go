package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"

	"crowdselect/internal/crowddb"
)

// TestNodeWireShapeByMode pins what each crowdd mode answers: the
// top-level keys of /readyz and /api/v1/metrics (which status sections
// a node carries) and the status and error code of the per-tenant
// facilities — query, digest, replication stream, backup and promote —
// on the default tenant and on a named one. An in-memory node has no
// journal, digest, stream or backup; a durable primary has them all; a
// follower refuses the query and the stream as a replica until it is
// promoted. How the node is assembled must not move any of it.
func TestNodeWireShapeByMode(t *testing.T) {
	want := map[string]string{
		"memory readyz":  "fencing,fencing_epoch,role,status",
		"memory metrics": "cache,deadline_overruns,endpoints,errors,fencing,requests,shed,shed_mutations,shed_reads,tenants,uptime_seconds",
		"memory default": "query 200 -, digest 404 not_found, stream 501 not_implemented, backup 501 not_implemented, promote 200 -",
		"memory acme":    "query 200 -, digest 404 not_found, stream 501 not_implemented, backup 501 not_implemented, promote 200 -",

		"primary readyz":  "fencing,fencing_epoch,integrity,replication,role,status",
		"primary metrics": "cache,deadline_overruns,durability,endpoints,errors,fencing,integrity,replication,requests,shed,shed_mutations,shed_reads,tenants,uptime_seconds",
		"primary default": "query 200 -, digest 200 -, stream 400 bad_request, backup 200 -, promote 200 -",
		"primary acme":    "query 200 -, digest 200 -, stream 400 bad_request, backup 200 -, promote 200 -",

		"replica readyz":  "fencing,fencing_epoch,integrity,replication,role,status",
		"replica metrics": "cache,deadline_overruns,durability,endpoints,errors,fencing,integrity,replication,requests,shed,shed_mutations,shed_reads,tenants,uptime_seconds",
		"replica default": "query 421 not_primary, digest 200 -, stream 503 not_primary, backup 200 -, promote 200 -",
		"replica acme":    "query 421 not_primary, digest 200 -, stream 503 not_primary, backup 200 -, promote 200 -",
	}
	got := map[string]string{}

	record := func(mode string, base string) {
		t.Helper()
		keys := func(path string) string {
			t.Helper()
			resp, err := http.Get(base + path)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var m map[string]json.RawMessage
			if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
				t.Fatalf("%s %s: %v", mode, path, err)
			}
			var ks []string
			for k := range m {
				ks = append(ks, k)
			}
			sort.Strings(ks)
			return strings.Join(ks, ",")
		}
		got[mode+" readyz"] = keys("/readyz")
		got[mode+" metrics"] = keys("/api/v1/metrics")

		call := func(method, path, body string) string {
			t.Helper()
			req, err := http.NewRequest(method, base+path, strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			code := "-"
			if resp.StatusCode >= 300 {
				var env struct {
					Error struct {
						Code string `json:"code"`
					} `json:"error"`
				}
				if err := json.Unmarshal(b, &env); err != nil {
					t.Fatalf("%s %s %s = %d without an envelope: %s", mode, method, path, resp.StatusCode, b)
				}
				code = env.Error.Code
			}
			return strconv.Itoa(resp.StatusCode) + " " + code
		}
		prefixes := map[string]string{"default": "/api/v1", "acme": "/api/v1/t/acme"}
		rows := map[string][]string{}
		for _, tenant := range []string{"default", "acme"} {
			p := prefixes[tenant]
			rows[tenant] = append(rows[tenant],
				"query "+call(http.MethodPost, p+"/query", `{"q":"SELECT CROWD FOR TASK 'index question' LIMIT 2"}`),
				"digest "+call(http.MethodGet, p+"/digest", ""),
				"stream "+call(http.MethodGet, p+"/replication/stream?from=-1", ""),
				"backup "+call(http.MethodGet, p+"/backup", ""))
		}
		// Promotion last: on a follower it flips the role for the node.
		for _, tenant := range []string{"default", "acme"} {
			rows[tenant] = append(rows[tenant], "promote "+call(http.MethodPost, prefixes[tenant]+"/replication/promote", `{}`))
			got[mode+" "+tenant] = strings.Join(rows[tenant], ", ")
		}
	}

	boot := func(cfg daemonConfig) (*httptest.Server, []*crowddb.Tenant) {
		t.Helper()
		srv, slices, err := buildNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return httptest.NewServer(srv), slices
	}
	closeNode := func(ts *httptest.Server, slices []*crowddb.Tenant) {
		for _, sl := range slices {
			sl.Close()
		}
		ts.CloseClientConnections()
		ts.Close()
	}

	cfg := testConfig()
	cfg.tenants = []string{"acme"}
	mem, memSlices := boot(cfg)
	record("memory", mem.URL)
	closeNode(mem, memSlices)

	cfg.dataDir = t.TempDir()
	primary, primarySlices := boot(cfg)
	defer closeNode(primary, primarySlices)
	record("primary", primary.URL)

	cfg.dataDir, cfg.replicaOf = t.TempDir(), primary.URL
	replica, replicaSlices := boot(cfg)
	defer closeNode(replica, replicaSlices)
	record("replica", replica.URL)

	for key, w := range want {
		if got[key] != w {
			t.Errorf("%s:\n got %s\nwant %s", key, got[key], w)
		}
	}
}
