package nodeconfig

import (
	"fmt"
	"io"
	"log/slog"
	"maps"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// env builds a lookupEnv func from a map.
func env(m map[string]string) func(string) (string, bool) {
	return func(k string) (string, bool) {
		v, ok := m[k]
		return v, ok
	}
}

func load(t *testing.T, args []string, envm map[string]string) *Config {
	t.Helper()
	cfg, err := Load(args, env(envm), io.Discard)
	if err != nil {
		t.Fatalf("Load(%q, %v): %v", args, envm, err)
	}
	return cfg
}

func TestDefaults(t *testing.T) {
	cfg := load(t, nil, nil)
	if cfg.NodeID != 0 || cfg.Listen != "127.0.0.1:0" || cfg.OpsListen != "" {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
	if cfg.Period != time.Second || cfg.LogLevel != "info" {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
	if cfg.PeerWait != 30*time.Second || cfg.DrainTimeout != 10*time.Second {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
}

func TestFlagLayer(t *testing.T) {
	cfg := load(t, []string{
		"-id", "3", "-listen", ":7003", "-peers", "1=h1:7001,0=h0:7000",
		"-period", "250ms", "-batch-size", "1", "-ops-listen", ":8080",
	}, nil)
	if cfg.NodeID != 3 || cfg.Listen != ":7003" || cfg.OpsListen != ":8080" {
		t.Errorf("flags not applied: %+v", cfg)
	}
	if cfg.BatchSize != 1 || cfg.Period != 250*time.Millisecond {
		t.Errorf("flags not applied: %+v", cfg)
	}
	// Peers come back sorted by ID regardless of input order.
	if len(cfg.Peers) != 2 || cfg.Peers[0] != (Peer{0, "h0:7000"}) || cfg.Peers[1] != (Peer{1, "h1:7001"}) {
		t.Errorf("peers = %+v", cfg.Peers)
	}
}

func writeConfig(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "node.conf")
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFileLayerAndFormat(t *testing.T) {
	path := writeConfig(t, `
# cosmos-node config
id = 5
listen = ":7005"
advertise = Station1, Station2
period = 2s
subscribe = "SELECT * FROM Station1 WHERE snowHeight > 40"
`)
	cfg := load(t, []string{"-config", path}, nil)
	if cfg.NodeID != 5 || cfg.Listen != ":7005" || cfg.Period != 2*time.Second {
		t.Errorf("file not applied: %+v", cfg)
	}
	if len(cfg.Advertise) != 2 || cfg.Advertise[0] != "Station1" || cfg.Advertise[1] != "Station2" {
		t.Errorf("advertise = %q", cfg.Advertise)
	}
	if cfg.Subscribe != "SELECT * FROM Station1 WHERE snowHeight > 40" {
		t.Errorf("quoted value mishandled: %q", cfg.Subscribe)
	}
}

func TestPrecedenceEnvOverFileOverFlag(t *testing.T) {
	path := writeConfig(t, "id = 5\nlisten = :7005\nperiod = 2s\n")
	cfg := load(t,
		[]string{"-config", path, "-id", "1", "-listen", ":7001", "-period", "1s", "-publish", "S"},
		map[string]string{"COSMOS_ID": "9"},
	)
	if cfg.NodeID != 9 {
		t.Errorf("env must beat file and flag: id = %d", cfg.NodeID)
	}
	if cfg.Listen != ":7005" || cfg.Period != 2*time.Second {
		t.Errorf("file must beat flag: %+v", cfg)
	}
	if cfg.Publish != "S" {
		t.Errorf("flag set only at flag layer must survive: %q", cfg.Publish)
	}
}

func TestEnvConfigFileOverridesFlagPath(t *testing.T) {
	flagged := writeConfig(t, "id = 1\n")
	enved := writeConfig(t, "id = 2\n")
	cfg := load(t, []string{"-config", flagged}, map[string]string{EnvConfigFile: enved})
	if cfg.NodeID != 2 {
		t.Errorf("COSMOS_CONFIG must override -config: id = %d", cfg.NodeID)
	}
}

func TestErrorsNameTheKeyAndSource(t *testing.T) {
	cases := []struct {
		name string
		args []string
		envm map[string]string
		file string
		want []string
	}{
		{
			name: "bad duration from env",
			envm: map[string]string{"COSMOS_PERIOD": "fast"},
			want: []string{`"period"`, "COSMOS_PERIOD"},
		},
		{
			name: "bad int from flag",
			args: []string{"-id", "three"},
			want: []string{`"id"`, "flag -id"},
		},
		{
			name: "bad peer from file",
			file: "peers = 1:nohost\n",
			want: []string{`"peers"`, "bad peer"},
		},
		{
			name: "unknown file key",
			file: "listne = :7000\n",
			want: []string{"unknown key", `"listne"`, "line 1"},
		},
		{
			// Removed in favour of batch-size = 1: a config that still
			// carries the key must fail loudly, not silently batch.
			name: "removed file key no-batching",
			file: "id = 1\nno-batching = true\n",
			want: []string{"unknown key", `"no-batching"`, "line 2"},
		},
		{
			name: "removed flag -no-batching",
			args: []string{"-no-batching"},
			want: []string{"flag provided but not defined", "-no-batching"},
		},
		{
			name: "malformed file line",
			file: "just words\n",
			want: []string{"line 1", "key = value"},
		},
		{
			name: "duplicate file key",
			file: "id = 1\nid = 2\n",
			want: []string{"line 2", "duplicate", `"id"`},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			args := c.args
			if c.file != "" {
				args = append([]string{"-config", writeConfig(t, c.file)}, args...)
			}
			_, err := Load(args, env(c.envm), io.Discard)
			if err == nil {
				t.Fatal("want error")
			}
			for _, frag := range c.want {
				if !strings.Contains(err.Error(), frag) {
					t.Errorf("error %q does not contain %q", err, frag)
				}
			}
		})
	}
}

func TestValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		key  string
	}{
		{"negative id", func(c *Config) { c.NodeID = -1 }, `"id"`},
		{"empty listen", func(c *Config) { c.Listen = " " }, `"listen"`},
		{"self peer", func(c *Config) { c.NodeID = 2; c.Peers = []Peer{{2, "x:1"}} }, `"peers"`},
		{"dup peer", func(c *Config) { c.Peers = []Peer{{1, "x:1"}, {1, "y:2"}} }, `"peers"`},
		{"negative peer", func(c *Config) { c.Peers = []Peer{{-3, "x:1"}} }, `"peers"`},
		{"zero period", func(c *Config) { c.Period = 0 }, `"period"`},
		{"negative peer-wait", func(c *Config) { c.PeerWait = -time.Second }, `"peer-wait"`},
		{"zero drain-timeout", func(c *Config) { c.DrainTimeout = 0 }, `"drain-timeout"`},
		{"negative batch-size", func(c *Config) { c.BatchSize = -1 }, `"batch-size"`},
		{"negative queue-depth", func(c *Config) { c.QueueDepth = -1 }, `"queue-depth"`},
		{"bad log level", func(c *Config) { c.LogLevel = "loud" }, `"log-level"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := defaults()
			c.mut(cfg)
			err := Validate(cfg)
			if err == nil {
				t.Fatal("want error")
			}
			if !strings.Contains(err.Error(), c.key) {
				t.Errorf("error %q does not name key %s", err, c.key)
			}
		})
	}
	if err := Validate(defaults()); err != nil {
		t.Errorf("defaults must validate: %v", err)
	}
}

func TestParseLogLevel(t *testing.T) {
	cases := []struct {
		in   string
		want slog.Level
	}{
		{"debug", slog.LevelDebug},
		{"INFO", slog.LevelInfo},
		{" warn ", slog.LevelWarn},
		{"warning", slog.LevelWarn},
		{"Error", slog.LevelError},
		{"off", levelOff},
		{"none", levelOff},
	}
	for _, c := range cases {
		got, err := ParseLogLevel(c.in)
		if err != nil {
			t.Errorf("ParseLogLevel(%q): %v", c.in, err)
		} else if got != c.want {
			t.Errorf("ParseLogLevel(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if levelOff <= slog.LevelError {
		t.Errorf("off (%d) must gate above every severity", levelOff)
	}
	for _, bad := range []string{"verbose", "trace", "loud", ""} {
		_, err := ParseLogLevel(bad)
		if err == nil {
			t.Errorf("ParseLogLevel(%q): want error", bad)
		} else if !strings.Contains(err.Error(), strconv.Quote(bad)) {
			t.Errorf("ParseLogLevel(%q) error does not name the value: %v", bad, err)
		}
	}
}

// TestLogLevelSetMatchesLoggingPackage holds log-level's names to log/slog's:
// each slog level's own name, and its lower-cased form as the node's log
// lines print it, parses to that level; a name both parsers accept maps to
// the same level in each; and the names slog rejects, log-level rejects too.
func TestLogLevelSetMatchesLoggingPackage(t *testing.T) {
	for _, lv := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError} {
		for _, name := range []string{lv.String(), strings.ToLower(lv.String())} {
			if got, err := ParseLogLevel(name); err != nil || got != lv {
				t.Errorf("ParseLogLevel(%q) = %v, %v; want %v", name, got, err, lv)
			}
		}
	}
	for _, name := range []string{"debug", "info", "warn", "warning", "error", "off", "none", "DEBUG", " info "} {
		got, errN := ParseLogLevel(name)
		if errN != nil {
			t.Errorf("level %q: nodeconfig err=%v", name, errN)
			continue
		}
		var want slog.Level
		if errS := want.UnmarshalText([]byte(name)); errS == nil && got != want {
			t.Errorf("level %q: nodeconfig %v, slog %v", name, got, want)
		}
	}
	for _, name := range []string{"", "trace", "loud"} {
		if _, err := ParseLogLevel(name); err == nil {
			t.Errorf("level %q must be rejected", name)
		}
		var lv slog.Level
		if err := lv.UnmarshalText([]byte(name)); err == nil {
			t.Errorf("slog level %q must be rejected", name)
		}
	}
}

func TestParsePeers(t *testing.T) {
	peers, err := ParsePeers(" 2 = b:2 , 1=a:1 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 || peers[0] != (Peer{1, "a:1"}) || peers[1] != (Peer{2, "b:2"}) {
		t.Errorf("peers = %+v", peers)
	}
	for _, bad := range []string{"1", "x=addr", "1=", "=addr"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q): want error", bad)
		}
	}
	if peers, err := ParsePeers(""); err != nil || len(peers) != 0 {
		t.Errorf("empty peers: %v, %v", peers, err)
	}
}

func TestPositionalArgsRejected(t *testing.T) {
	if _, err := Load([]string{"stray"}, env(nil), io.Discard); err == nil {
		t.Fatal("want error for positional args")
	}
}

func TestReferenceCoversEveryOption(t *testing.T) {
	ref := Reference()
	for _, o := range options() {
		if !strings.Contains(ref, "| `"+o.key+"` |") {
			t.Errorf("Reference() missing option %q", o.key)
		}
		if !strings.Contains(ref, EnvVar(o.key)) {
			t.Errorf("Reference() missing env var for %q", o.key)
		}
	}
}

// TestOpsReferenceInSync pins OPS.md's "Configuration reference" table to
// the rendered option table: the docs promise they are generated from the
// same source of truth, and this is what makes that promise enforceable —
// adding or changing an option without updating OPS.md fails here. On a
// mismatch, paste the output of nodeconfig.Reference() into OPS.md.
func TestOpsReferenceInSync(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "OPS.md"))
	if err != nil {
		t.Fatalf("reading OPS.md: %v", err)
	}
	if !strings.Contains(string(data), Reference()) {
		t.Fatalf("OPS.md's configuration reference is out of sync with nodeconfig.Reference(); regenerate the table:\n%s", Reference())
	}
}

// FuzzNodeConfigFile feeds arbitrary text to the config-file parser, seeded
// with the compose deployment's files. The parser must not panic, must
// accept only keys of the option table, and an accepted map rendered back as
// `key = "quoted value"` lines must parse to the same map.
func FuzzNodeConfigFile(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "..", "deploy", "compose", "node*.conf"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no compose seeds: %v", err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Add("# comment\n\nid=1\n" + `subscribe = "SELECT * FROM S WHERE a >= \"x\""` + "\n")
	valid := known(options())
	f.Fuzz(func(t *testing.T, content string) {
		got, err := parseFile(content, valid)
		if err != nil {
			return
		}
		var b strings.Builder
		for key, val := range got {
			if !valid[key] {
				t.Fatalf("accepted unknown key %q", key)
			}
			fmt.Fprintf(&b, "%s = %s\n", key, strconv.Quote(val))
		}
		back, err := parseFile(b.String(), valid)
		if err != nil {
			t.Fatalf("re-rendered file rejected: %v\n%s", err, b.String())
		}
		if !maps.Equal(got, back) {
			t.Fatalf("round trip changed the map: %q -> %q", got, back)
		}
	})
}
