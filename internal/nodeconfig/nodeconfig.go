// Package nodeconfig loads the deployable node's configuration from three
// layered sources with the precedence
//
//	environment  >  config file  >  command-line flag  >  built-in default
//
// Every knob has one canonical key (e.g. "ops-listen"), which names its
// flag (-ops-listen), its file line (ops-listen = :8080) and its
// environment variable (COSMOS_OPS_LISTEN, the key upper-cased with dashes
// turned into underscores). The inverted-looking precedence is deliberate
// for fleet deployments: the baked-in command line and the shipped config
// file are image-wide, while environment variables are the per-instance
// override a scheduler injects — the layer closest to the running instance
// wins. All defaults are documented in OPS.md ("Configuration reference"),
// which is generated from the same option table this package validates
// against, so the docs cannot drift silently.
//
// Validation failures always name the offending key and the source layer it
// came from, e.g.:
//
//	nodeconfig: bad value for "period" (from env COSMOS_PERIOD): time: invalid duration "fast"
package nodeconfig

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Peer is one configured overlay neighbor.
type Peer struct {
	ID   int
	Addr string
}

// Config is the node's merged configuration. Fields correspond one-to-one
// to the option table in this package (and the OPS.md reference).
type Config struct {
	// NodeID is this broker's overlay node ID (unique across the fleet).
	NodeID int
	// Listen is the broker's TCP listen address for overlay traffic.
	Listen string
	// OpsListen is the operational HTTP listener address (/healthz,
	// /metrics, /debug/overlay.dot). Empty disables the ops server.
	OpsListen string
	// Peers are the overlay neighbors, parsed from "id=addr[,id=addr...]".
	Peers []Peer
	// Advertise lists the stream names this node's clients publish.
	Advertise []string
	// Publish names a stream to publish synthetic readings on (demo
	// publisher; implies advertising it if Advertise is empty).
	Publish string
	// Subscribe is a CQL subscription over one stream, e.g.
	// "SELECT * FROM Station1 WHERE snowHeight >= 0".
	Subscribe string
	// Period is the synthetic publisher's period.
	Period time.Duration
	// LogLevel gates the structured logger (debug, info, warn, error, off).
	LogLevel string
	// PeerWait bounds the startup probe that waits for configured peers'
	// TCP listeners to become reachable before the first advert flood.
	// Zero skips the probe.
	PeerWait time.Duration
	// DrainTimeout bounds the graceful SIGTERM drain (retract
	// subscriptions, withdraw adverts, flush pipelines) before the node
	// gives up and closes anyway.
	DrainTimeout time.Duration
	// BatchSize and QueueDepth tune the transport send pipelines (0 = the
	// transport's default).
	BatchSize  int
	QueueDepth int
}

// defaults returns the built-in configuration every layer overrides.
func defaults() *Config {
	return &Config{
		NodeID:       0,
		Listen:       "127.0.0.1:0",
		OpsListen:    "",
		Period:       time.Second,
		LogLevel:     "info",
		PeerWait:     30 * time.Second,
		DrainTimeout: 10 * time.Second,
	}
}

// option is one configuration knob: its canonical key plus the setter that
// parses a raw string into the Config. Setter errors are wrapped with the
// key and source layer by apply().
type option struct {
	key   string
	usage string
	set   func(c *Config, raw string) error
}

// Options returns the option table in declaration order — the single source
// of truth for flags, file keys, env vars and the OPS.md reference.
func options() []option {
	return []option{
		{"id", "node ID (unique across the overlay)", func(c *Config, raw string) error {
			v, err := strconv.Atoi(raw)
			if err != nil {
				return err
			}
			c.NodeID = v
			return nil
		}},
		{"listen", "overlay TCP listen address", func(c *Config, raw string) error {
			c.Listen = raw
			return nil
		}},
		{"ops-listen", "ops HTTP listen address (/healthz, /metrics, /debug/overlay.dot); empty disables", func(c *Config, raw string) error {
			c.OpsListen = raw
			return nil
		}},
		{"peers", "overlay neighbors as id=addr[,id=addr...]", func(c *Config, raw string) error {
			peers, err := ParsePeers(raw)
			if err != nil {
				return err
			}
			c.Peers = peers
			return nil
		}},
		{"advertise", "comma-separated stream names this node publishes", func(c *Config, raw string) error {
			c.Advertise = splitNonEmpty(raw)
			return nil
		}},
		{"publish", "publish synthetic readings on this stream", func(c *Config, raw string) error {
			c.Publish = strings.TrimSpace(raw)
			return nil
		}},
		{"subscribe", "CQL subscription over one stream, e.g. SELECT * FROM Station1 WHERE snowHeight >= 0", func(c *Config, raw string) error {
			c.Subscribe = strings.TrimSpace(raw)
			return nil
		}},
		{"period", "synthetic publish period", func(c *Config, raw string) error {
			v, err := time.ParseDuration(raw)
			if err != nil {
				return err
			}
			c.Period = v
			return nil
		}},
		{"log-level", "log gate: debug, info, warn, error or off", func(c *Config, raw string) error {
			c.LogLevel = strings.TrimSpace(raw)
			return nil
		}},
		{"peer-wait", "how long to wait for peers' listeners at startup (0 = don't wait)", func(c *Config, raw string) error {
			v, err := time.ParseDuration(raw)
			if err != nil {
				return err
			}
			c.PeerWait = v
			return nil
		}},
		{"drain-timeout", "graceful-shutdown drain bound", func(c *Config, raw string) error {
			v, err := time.ParseDuration(raw)
			if err != nil {
				return err
			}
			c.DrainTimeout = v
			return nil
		}},
		{"batch-size", "max envelopes per transport frame (0 = transport default, 1 = one envelope per frame)", func(c *Config, raw string) error {
			v, err := strconv.Atoi(raw)
			if err != nil {
				return err
			}
			c.BatchSize = v
			return nil
		}},
		{"queue-depth", "per-peer send queue bound, both planes (0 = transport default)", func(c *Config, raw string) error {
			v, err := strconv.Atoi(raw)
			if err != nil {
				return err
			}
			c.QueueDepth = v
			return nil
		}},
	}
}

// EnvVar returns the environment variable that overrides the given option
// key: COSMOS_ plus the key upper-cased, dashes as underscores.
func EnvVar(key string) string {
	return "COSMOS_" + strings.ToUpper(strings.ReplaceAll(key, "-", "_"))
}

// EnvConfigFile is the environment override for the config-file path itself
// (strongest source for it, mirroring the option precedence).
const EnvConfigFile = "COSMOS_CONFIG"

// Load parses the command line, the optional config file (the -config flag,
// overridden by $COSMOS_CONFIG) and the environment, merges them with the
// package's documented precedence, validates the result and returns it.
// lookupEnv is os.LookupEnv in production, injectable for tests; errOut
// receives flag usage output (os.Stderr in production). flag.ErrHelp is
// returned as-is for -h.
func Load(args []string, lookupEnv func(string) (string, bool), errOut io.Writer) (*Config, error) {
	if lookupEnv == nil {
		lookupEnv = os.LookupEnv
	}
	opts := options()

	fs := flag.NewFlagSet("cosmos-node", flag.ContinueOnError)
	if errOut != nil {
		fs.SetOutput(errOut)
	}
	configPath := fs.String("config", "", "config file path (key = value lines; $"+EnvConfigFile+" overrides)")
	for _, o := range opts {
		// Every flag is a string; the values the user actually set are
		// recovered from Visit below.
		fs.String(o.key, "", o.usage)
	}
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("nodeconfig: unexpected positional arguments: %q", fs.Args())
	}

	// Weakest layer first: collect only the flags the user actually set
	// (Visit skips defaults), in the canonical table order.
	fromFlags := make(map[string]string)
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "config" {
			return
		}
		fromFlags[f.Name] = f.Value.String()
	})

	path := *configPath
	if v, ok := lookupEnv(EnvConfigFile); ok && strings.TrimSpace(v) != "" {
		path = strings.TrimSpace(v)
	}
	var fromFile map[string]string
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("nodeconfig: read config file: %w", err)
		}
		fromFile, err = parseFile(string(data), known(opts))
		if err != nil {
			return nil, fmt.Errorf("nodeconfig: config file %s: %w", path, err)
		}
	}

	fromEnv := make(map[string]string)
	for _, o := range opts {
		if v, ok := lookupEnv(EnvVar(o.key)); ok {
			fromEnv[o.key] = v
		}
	}

	cfg := defaults()
	for _, layer := range []struct {
		name   string
		values map[string]string
	}{
		{"flag", fromFlags},
		{"file " + path, fromFile},
		{"env", fromEnv},
	} {
		if err := apply(cfg, opts, layer.values, layer.name); err != nil {
			return nil, err
		}
	}
	if err := Validate(cfg); err != nil {
		return nil, err
	}
	return cfg, nil
}

// known returns the set of valid option keys.
func known(opts []option) map[string]bool {
	set := make(map[string]bool, len(opts))
	for _, o := range opts {
		set[o.key] = true
	}
	return set
}

// apply overlays one source layer onto cfg, in option-table order. A parse
// failure names the key and the layer it came from.
func apply(cfg *Config, opts []option, values map[string]string, source string) error {
	for _, o := range opts {
		raw, ok := values[o.key]
		if !ok {
			continue
		}
		if err := o.set(cfg, raw); err != nil {
			loc := source
			if source == "env" {
				loc = "env " + EnvVar(o.key)
			} else if source == "flag" {
				loc = "flag -" + o.key
			}
			return fmt.Errorf("nodeconfig: bad value for %q (from %s): %w", o.key, loc, err)
		}
	}
	return nil
}

// parseFile reads the `key = value` file format: one pair per line, '#'
// comments, blank lines ignored, optional double quotes around the value.
// Unknown keys and malformed lines are errors naming the line.
func parseFile(content string, valid map[string]bool) (map[string]string, error) {
	out := make(map[string]string)
	for i, line := range strings.Split(content, "\n") {
		s := strings.TrimSpace(line)
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		eq := strings.Index(s, "=")
		if eq < 0 {
			return nil, fmt.Errorf("line %d: not a key = value pair: %q", i+1, s)
		}
		key := strings.TrimSpace(s[:eq])
		val := strings.TrimSpace(s[eq+1:])
		if !valid[key] {
			return nil, fmt.Errorf("line %d: unknown key %q", i+1, key)
		}
		if len(val) >= 2 && strings.HasPrefix(val, `"`) && strings.HasSuffix(val, `"`) {
			unq, err := strconv.Unquote(val)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad quoted value for %q: %v", i+1, key, err)
			}
			val = unq
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate key %q", i+1, key)
		}
		out[key] = val
	}
	return out, nil
}

// ParsePeers parses "id=addr[,id=addr...]" into a Peer list sorted by ID.
// Duplicate IDs and self-loops are rejected by Validate, not here.
func ParsePeers(raw string) ([]Peer, error) {
	var peers []Peer
	for _, p := range splitNonEmpty(raw) {
		idAddr := strings.SplitN(p, "=", 2)
		if len(idAddr) != 2 || strings.TrimSpace(idAddr[1]) == "" {
			return nil, fmt.Errorf("bad peer %q (want id=addr)", p)
		}
		id, err := strconv.Atoi(strings.TrimSpace(idAddr[0]))
		if err != nil {
			return nil, fmt.Errorf("bad peer id %q: %v", idAddr[0], err)
		}
		peers = append(peers, Peer{ID: id, Addr: strings.TrimSpace(idAddr[1])})
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].ID < peers[j].ID })
	return peers, nil
}

// Validate checks the merged configuration's semantic invariants. Errors
// name the offending key.
func Validate(c *Config) error {
	if c.NodeID < 0 {
		return fmt.Errorf(`nodeconfig: "id" must be >= 0 (got %d)`, c.NodeID)
	}
	if strings.TrimSpace(c.Listen) == "" {
		return fmt.Errorf(`nodeconfig: "listen" must not be empty`)
	}
	seen := make(map[int]bool, len(c.Peers))
	for _, p := range c.Peers {
		if p.ID < 0 {
			return fmt.Errorf(`nodeconfig: "peers": peer id must be >= 0 (got %d)`, p.ID)
		}
		if p.ID == c.NodeID {
			return fmt.Errorf(`nodeconfig: "peers": peer %d is this node's own id`, p.ID)
		}
		if seen[p.ID] {
			return fmt.Errorf(`nodeconfig: "peers": duplicate peer id %d`, p.ID)
		}
		seen[p.ID] = true
	}
	if c.Period <= 0 {
		return fmt.Errorf(`nodeconfig: "period" must be positive (got %v)`, c.Period)
	}
	if c.PeerWait < 0 {
		return fmt.Errorf(`nodeconfig: "peer-wait" must be >= 0 (got %v)`, c.PeerWait)
	}
	if c.DrainTimeout <= 0 {
		return fmt.Errorf(`nodeconfig: "drain-timeout" must be positive (got %v)`, c.DrainTimeout)
	}
	if c.BatchSize < 0 {
		return fmt.Errorf(`nodeconfig: "batch-size" must be >= 0 (got %d)`, c.BatchSize)
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf(`nodeconfig: "queue-depth" must be >= 0 (got %d)`, c.QueueDepth)
	}
	if _, err := ParseLogLevel(c.LogLevel); err != nil {
		return fmt.Errorf(`nodeconfig: bad value for "log-level": %w`, err)
	}
	return nil
}

// levelOff is the level "off" and "none" name: above every severity, so a
// logger gated at it emits nothing.
const levelOff = slog.Level(math.MaxInt)

// ParseLogLevel maps a log-level name (debug, info, warn or warning, error,
// off or none; any case, surrounding space ignored) to its slog level. The
// error names the bad value.
func ParseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	case "off", "none":
		return levelOff, nil
	}
	return 0, fmt.Errorf("unknown level %q (want debug, info, warn, error or off)", s)
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// Reference renders the option table as a markdown table (key, flag, env
// var, default, description) — the generator behind OPS.md's configuration
// reference, kept here so the docs and the code share one source of truth.
//
//lint:deadcode generator of OPS.md's configuration table, which TestOpsReferenceInSync compares against
func Reference() string {
	def := defaults()
	defaultFor := map[string]string{
		"id":            strconv.Itoa(def.NodeID),
		"listen":        def.Listen,
		"ops-listen":    "(disabled)",
		"peers":         "(none)",
		"advertise":     "(none)",
		"publish":       "(none)",
		"subscribe":     "(none)",
		"period":        def.Period.String(),
		"log-level":     def.LogLevel,
		"peer-wait":     def.PeerWait.String(),
		"drain-timeout": def.DrainTimeout.String(),
		"batch-size":    "0 (transport default 64)",
		"queue-depth":   "0 (transport default 4096)",
	}
	var b strings.Builder
	b.WriteString("| Key | Flag | Env | Default | Description |\n")
	b.WriteString("|-----|------|-----|---------|-------------|\n")
	for _, o := range options() {
		fmt.Fprintf(&b, "| `%s` | `-%s` | `%s` | `%s` | %s |\n",
			o.key, o.key, EnvVar(o.key), defaultFor[o.key], o.usage)
	}
	return b.String()
}
