// Command proteand is the protean fleet daemon: it listens on TCP
// and/or a unix socket, accepts Scenario submissions over the
// length-prefixed binary wire protocol, runs them on the shared
// in-process fleet runner, and streams progress and results back to
// clients. SIGINT/SIGTERM drain gracefully — running jobs finish and
// queued replies flush before the sockets close; a second signal
// forces exit. -cpuprofile and -memprofile write host profiles, ended
// and flushed once the drain completes.
//
// Usage:
//
//	proteand [-tcp HOST:PORT] [-unix PATH] [-max-active N] [-queue-depth N] [-name NAME]
//	         [-cpuprofile f] [-memprofile f]
//
// With neither -tcp nor -unix, the daemon listens on 127.0.0.1:9190.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"

	"protean/internal/obs"
	"protean/internal/server"
)

func main() {
	tcpAddr := flag.String("tcp", "", "TCP listen address (host:port)")
	unixPath := flag.String("unix", "", "unix socket listen path")
	name := flag.String("name", "proteand", "server name reported in the handshake")
	maxActive := flag.Int("max-active", runtime.NumCPU(), "max concurrently running jobs (0 = unbounded)")
	queueDepth := flag.Int("queue-depth", 0, "per-connection write queue depth in frames (0 = default)")
	cpuProfile := flag.String("cpuprofile", "", "write a host CPU profile to this file, ended on graceful drain")
	memProfile := flag.String("memprofile", "", "write a host allocation profile to this file on graceful drain")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "proteand: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}
	if *tcpAddr == "" && *unixPath == "" {
		*tcpAddr = "127.0.0.1:9190"
	}

	stopProfiles, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "proteand:", err)
		os.Exit(1)
	}
	srv := server.New(server.Config{Name: *name, MaxActive: *maxActive, QueueDepth: *queueDepth})
	var wg sync.WaitGroup
	listen := func(network, addr string) {
		l, err := net.Listen(network, addr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "proteand: listen %s %s: %v\n", network, addr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "proteand: listening on %s %s\n", network, addr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := srv.Serve(l); err != nil {
				fmt.Fprintf(os.Stderr, "proteand: serve %s %s: %v\n", network, addr, err)
			}
		}()
	}
	if *unixPath != "" {
		// A previous unclean exit may have left the socket file behind;
		// net.Listen would refuse to rebind over it.
		os.Remove(*unixPath)
		listen("unix", *unixPath)
	}
	if *tcpAddr != "" {
		listen("tcp", *tcpAddr)
	}

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	sig := <-sigc
	fmt.Fprintf(os.Stderr, "proteand: %v: draining (signal again to force exit)\n", sig)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "proteand: forced exit")
		os.Exit(1)
	}()
	srv.Shutdown()
	wg.Wait()
	if *unixPath != "" {
		os.Remove(*unixPath)
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, "proteand: profile:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "proteand: drained")
}
