// Command memmodelctl drives a memmodeld daemon through the resilient
// client SDK — the operational counterpart to cmd/memmodeld and the
// workhorse of scripts/chaos_memmodeld.sh and scripts/calibrate_smoke.sh.
//
// Usage:
//
//	memmodelctl <command> [flags]
//	memmodelctl -version
//
// Commands:
//
//	health    wait for the daemon to answer /healthz
//	eval      evaluate one scenario and print the operating point
//	soak      chaos acceptance: n evaluates, 100% eventual success
//	cluster   race routing policies on the daemon's fleet simulator
//	loadgen   seeded open-loop load generation + model calibration
//	validate  dry-run a workload spec server-side (no traffic)
//	version   print build identity
//
// Every command shares one flag set: -server for the daemon base URL,
// -timeout for the per-call deadline, -json for compact
// machine-readable output, -seed for deterministic jitter and workload
// streams, plus the SDK reliability knobs
// (-attempt-timeout, -max-attempts, -backoff-base, -backoff-cap,
// -breaker, -breaker-cooldown). Command-specific flags follow the
// command: `memmodelctl soak -n 200`.
//
// Exit status: 0 on success, 1 on a runtime failure (a request
// exhausted its budget, a calibration gate failed), 2 on a usage error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/client"
	"repro/internal/version"
)

// shared is the flag surface every subcommand gets, parsed from the
// flags after the command word.
type shared struct {
	server      string
	timeout     time.Duration
	jsonOut     bool
	seed        int64
	attemptTO   time.Duration
	maxAttempts int
	backoffBase time.Duration
	backoffCap  time.Duration
	breaker     int
	cooldown    time.Duration

	// seedSet records whether -seed was given, so a spec file's own
	// seed survives the flag's default.
	seedSet bool
	// out receives the command's results (stdout in the binary).
	out io.Writer
}

// register installs the shared flags on a command's FlagSet.
func (sh *shared) register(fs *flag.FlagSet) {
	fs.StringVar(&sh.server, "server", "http://127.0.0.1:8080", "memmodeld base URL")
	fs.DurationVar(&sh.timeout, "timeout", 30*time.Second, "overall per-call deadline budget")
	fs.BoolVar(&sh.jsonOut, "json", false, "compact machine-readable JSON output")
	fs.Int64Var(&sh.seed, "seed", 1, "deterministic seed for retry jitter and workload streams")
	fs.DurationVar(&sh.attemptTO, "attempt-timeout", 5*time.Second, "per-attempt timeout inside the budget")
	fs.IntVar(&sh.maxAttempts, "max-attempts", 10, "attempt cap per call, first try included")
	fs.DurationVar(&sh.backoffBase, "backoff-base", 20*time.Millisecond, "exponential backoff base")
	fs.DurationVar(&sh.backoffCap, "backoff-cap", 2*time.Second, "exponential backoff cap")
	fs.IntVar(&sh.breaker, "breaker", 0, "circuit-breaker threshold (consecutive failures); 0 disables")
	fs.DurationVar(&sh.cooldown, "breaker-cooldown", 5*time.Second, "circuit-breaker open duration before the probe")
}

// client builds the SDK client the shared flags describe.
func (sh *shared) client() *client.Client {
	return client.New(sh.server,
		client.WithBudget(sh.timeout),
		client.WithAttemptTimeout(sh.attemptTO),
		client.WithMaxAttempts(sh.maxAttempts),
		client.WithBackoff(sh.backoffBase, sh.backoffCap),
		client.WithSeed(sh.seed),
		client.WithBreaker(sh.breaker, sh.cooldown),
	)
}

// command is one memmodelctl subcommand. Adding a subcommand is one
// constructor in the commands table: register command flags on fs,
// return the run function. Shared flags and client construction are
// handled by the dispatcher.
type command struct {
	name     string
	synopsis string
	setup    func(fs *flag.FlagSet) func(ctx context.Context, sh *shared) error
}

// commands is the dispatch table; order is the help order.
func commands() []command {
	return []command{
		{"health", "wait for the daemon to answer /healthz", healthCmd},
		{"eval", "evaluate one scenario and print the operating point", evalCmd},
		{"soak", "chaos acceptance: n evaluates, 100% eventual success", soakCmd},
		{"cluster", "race routing policies on the daemon's fleet simulator", clusterCmd},
		{"loadgen", "seeded open-loop load generation + model calibration", loadgenCmd},
		{"validate", "dry-run a workload spec server-side (no traffic)", validateCmd},
		{"version", "print build identity", versionCmd},
	}
}

// parse builds command c's flag set, parses args into it and returns
// the command's run function with the shared flags it filled in.
func (c command) parse(args []string, onError flag.ErrorHandling) (func(context.Context, *shared) error, *shared, error) {
	fs := flag.NewFlagSet(c.name, onError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: memmodelctl %s [flags]\n\n%s\n\nflags:\n", c.name, c.synopsis)
		fs.PrintDefaults()
	}
	sh := &shared{out: os.Stdout}
	sh.register(fs)
	run := c.setup(fs)
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	if fs.NArg() > 0 {
		return nil, nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	fs.Visit(func(f *flag.Flag) { sh.seedSet = sh.seedSet || f.Name == "seed" })
	return run, sh, nil
}

func usage(out *os.File) {
	fmt.Fprintf(out, "usage: memmodelctl <command> [flags]\n\ncommands:\n")
	for _, c := range commands() {
		fmt.Fprintf(out, "  %-10s %s\n", c.name, c.synopsis)
	}
	fmt.Fprintf(out, "\nrun `memmodelctl <command> -h` for the command's flags\n")
}

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		usage(os.Stderr)
		os.Exit(2)
	}
	switch args[0] {
	case "-version", "--version":
		fmt.Println(version.String())
		return
	case "-h", "--help", "-help", "help":
		usage(os.Stdout)
		return
	}
	for _, c := range commands() {
		if c.name != args[0] {
			continue
		}
		run, sh, err := c.parse(args[1:], flag.ExitOnError)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memmodelctl %s: %v\n", c.name, err)
			os.Exit(2)
		}
		if err := run(context.Background(), sh); err != nil {
			fmt.Fprintf(os.Stderr, "memmodelctl: %v\n", err)
			os.Exit(1)
		}
		return
	}
	fmt.Fprintf(os.Stderr, "memmodelctl: unknown command %q\n", args[0])
	usage(os.Stderr)
	os.Exit(2)
}

func versionCmd(fs *flag.FlagSet) func(context.Context, *shared) error {
	return func(ctx context.Context, sh *shared) error {
		fmt.Fprintln(sh.out, version.String())
		return nil
	}
}
