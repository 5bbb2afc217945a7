// Command protean is the proteand client: it submits scenario specs
// to a running daemon, watches their event streams, polls status,
// cancels jobs, retrieves FleetResults as JSON, and dumps the
// daemon's metrics in Prometheus text format.
//
// Usage:
//
//	protean -addr ADDR submit [-watch] SPEC.json   print the job id (and stream to completion with -watch)
//	protean -addr ADDR watch JOB                   stream a job's events until it finishes
//	protean -addr ADDR status JOB                  print the job's state
//	protean -addr ADDR cancel JOB                  cancel a job
//	protean -addr ADDR result JOB                  print the finished job's FleetResult JSON
//	protean -addr ADDR metrics                     print the daemon's metrics snapshot
//
// ADDR is either "unix:PATH" or a TCP "host:port"; the default is the
// daemon's default TCP address.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"protean"
	"protean/internal/server"
	"protean/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9190", `daemon address: "unix:PATH" or TCP "host:port"`)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "protean: missing verb (submit | watch | status | cancel | result | metrics)")
		os.Exit(2)
	}
	verb, args := flag.Arg(0), flag.Args()[1:]

	c, err := server.Dial(server.SplitAddr(*addr))
	if err != nil {
		fatal(err)
	}
	defer c.Close()

	switch verb {
	case "submit":
		fs := flag.NewFlagSet("submit", flag.ExitOnError)
		watch := fs.Bool("watch", false, "stream the job's events and exit with its outcome")
		fs.Parse(args)
		if fs.NArg() != 1 {
			fatal(fmt.Errorf("submit takes exactly one spec file"))
		}
		spec, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			fatal(err)
		}
		job, err := c.Submit(spec)
		if err != nil {
			fatal(err)
		}
		fmt.Println(job)
		if *watch {
			watchJob(c, job)
		}
	case "watch":
		watchJob(c, jobArg(args))
	case "status":
		st, err := c.Status(jobArg(args))
		if err != nil {
			fatal(err)
		}
		switch st.State {
		case wire.StateDone:
			fmt.Printf("job %d: %s makespan=%d\n", st.Job, st.State, st.Makespan)
		case wire.StateFailed, wire.StateCanceled:
			fmt.Printf("job %d: %s (%s)\n", st.Job, st.State, st.Err)
		default:
			fmt.Printf("job %d: %s\n", st.Job, st.State)
		}
	case "cancel":
		job := jobArg(args)
		canceled, err := c.Cancel(job)
		if err != nil {
			fatal(err)
		}
		if canceled {
			fmt.Printf("job %d: cancel requested\n", job)
		} else {
			fmt.Printf("job %d: already finished\n", job)
		}
	case "result":
		fr, err := c.Result(jobArg(args))
		if err != nil {
			fatal(err)
		}
		out, err := json.MarshalIndent(fr, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
	case "metrics":
		snap, err := c.Metrics()
		if err != nil {
			fatal(err)
		}
		if err := snap.WriteProm(os.Stdout); err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintf(os.Stderr, "protean: unknown verb %q\n", verb)
		os.Exit(2)
	}
}

// printEvent writes one watched event as its stream line.
func printEvent(w io.Writer, job uint64, ev protean.Event) {
	fmt.Fprintf(w, "job %d: %s %s cycle=%d %s\n", job, ev.Kind, ev.Label, ev.Cycle, ev.String())
}

// watchJob streams one job's events to stderr until it finishes,
// exiting nonzero unless the job completed successfully.
func watchJob(c *server.Client, job uint64) {
	done, err := c.Watch(job,
		func(ev protean.Event) { printEvent(os.Stderr, job, ev) },
		func(dropped uint64) {
			fmt.Fprintf(os.Stderr, "job %d: [%d events dropped]\n", job, dropped)
		})
	if err != nil {
		fatal(err)
	}
	switch done.State {
	case wire.StateDone:
		fmt.Fprintf(os.Stderr, "job %d: done\n", job)
	default:
		fmt.Fprintf(os.Stderr, "job %d: %s (%s)\n", job, done.State, done.Err)
		os.Exit(1)
	}
}

func jobArg(args []string) uint64 {
	if len(args) != 1 {
		fatal(fmt.Errorf("expected exactly one job id"))
	}
	job, err := strconv.ParseUint(args[0], 10, 64)
	if err != nil {
		fatal(fmt.Errorf("bad job id %q", args[0]))
	}
	return job
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "protean:", err)
	os.Exit(1)
}
