// Package a is a gorolifecycle fixture shaped like the server's accept
// loop and maintenance tickers: goroutines that join a WaitGroup, watch
// a quit channel, or — the violations — do neither.
package a

import "sync"

type server struct {
	wg   sync.WaitGroup
	quit chan struct{}
}

// worker joins the WaitGroup: a compliant named goroutine body.
func (s *server) worker() {
	defer s.wg.Done()
}

// helper neither joins nor watches anything.
func (s *server) helper() {}

// goodNamed: Add precedes the launch, worker Dones.
func (s *server) goodNamed() {
	s.wg.Add(1)
	go s.worker()
}

// goodLiteral: the literal body Dones directly.
func (s *server) goodLiteral() {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
	}()
}

// goodNested: the literal inherits worker's Done through its fact.
func (s *server) goodNested() {
	s.wg.Add(1)
	go func() {
		s.worker()
	}()
}

// goodQuit: a shutdown-channel watcher needs no WaitGroup.
func (s *server) goodQuit() {
	go func() {
		for {
			select {
			case <-s.quit:
				return
			default:
			}
		}
	}()
}

// watchQuit receives from the quit channel; named-callee variant.
func (s *server) watchQuit() {
	<-s.quit
}

func (s *server) goodNamedQuit() {
	go s.watchQuit()
}

// badFireAndForget is tied to nothing.
func (s *server) badFireAndForget() {
	go func() { s.helper() }() // want `fire-and-forget`
}

// badNamed launches a do-nothing named function.
func (s *server) badNamed() {
	go s.helper() // want `fire-and-forget`
}

// badNoAdd joins a WaitGroup nobody Added to before the launch: Close
// can return before — or race — the goroutine's Done.
func (s *server) badNoAdd() {
	go s.worker() // want `no WaitGroup.Add precedes`
}

// allowed pins the escape hatch.
func (s *server) allowed() {
	//dhslint:allow gorolifecycle(fixture: process-lifetime helper by design)
	go s.helper()
}

// adminLn is shaped like the admin listener — a blocking Accept and a
// Close that unblocks it — so the fixture covers the admin launch
// pattern without importing net.
type adminLn struct{}

func (l *adminLn) Accept() (int, error) { return 0, nil }
func (l *adminLn) Close() error         { return nil }

// serveAdmin mirrors Server.serveAdmin: the accept loop joins the
// WaitGroup, and so does the goroutine it launches per connection, each
// after its own Add.
func (s *server) serveAdmin(ln *adminLn) {
	defer s.wg.Done()
	for {
		if _, err := ln.Accept(); err != nil {
			return
		}
		s.wg.Add(1)
		go s.worker()
	}
}

// goodAdminPair mirrors Server.StartAdmin: the accept loop joins the
// WaitGroup, and the shutdown watcher joins it too while receiving from
// the quit channel before closing the listener.
func (s *server) goodAdminPair(ln *adminLn) {
	s.wg.Add(1)
	go s.serveAdmin(ln)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		<-s.quit
		ln.Close()
	}()
}

// badAdminServe launches the accept loop untracked: shutdown can return
// while the listener still accepts connections.
func (s *server) badAdminServe(ln *adminLn) {
	go func() { ln.Accept() }() // want `fire-and-forget`
}

// badAdminWatcher ties the watcher to quit but leaves the accept loop
// joined to a WaitGroup nobody Added to.
func (s *server) badAdminWatcher(ln *adminLn) {
	go s.serveAdmin(ln) // want `no WaitGroup.Add precedes`
	go func() {
		<-s.quit
		ln.Close()
	}()
}

// ---------------------------------------------------------------------
// dhsd shapes: a worker fleet launched in a loop, and request handlers
// that spawn per-query goroutines.

// goodWorkerFleet mirrors cmd/dhsload's closed-loop workers: Add inside
// the loop, before each launch, every body Doneing.
func (s *server) goodWorkerFleet(n int) {
	for i := 0; i < n; i++ {
		s.wg.Add(1)
		go func(i int) {
			defer s.wg.Done()
			s.helper()
		}(i)
	}
}

// badWorkerFleet launches the fleet untracked: main can exit while
// workers still hold sockets.
func (s *server) badWorkerFleet(n int) {
	for i := 0; i < n; i++ {
		go func() { s.helper() }() // want `fire-and-forget`
	}
}

// goodQueueDrainer is the admission-queue shape: a drainer goroutine
// that selects between work and the quit channel.
func (s *server) goodQueueDrainer(queue chan int) {
	go func() {
		for {
			select {
			case <-queue:
				s.helper()
			case <-s.quit:
				return
			}
		}
	}()
}

// badQueueDrainer drains the queue forever with no shutdown tie: the
// goroutine leaks past Close, pinning the queue channel.
func (s *server) badQueueDrainer(queue chan int) {
	go func() { // want `fire-and-forget`
		for range queue {
			s.helper()
		}
	}()
}
