package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// inFlight is the most requests the generator ever has outstanding: one
// per CPU of the 2-vCPU machine the benchmark is calibrated on.
const inFlight = 2

// request is one prepared HTTP call. Bodies are encoded before the run,
// so no encoding happens inside a timed window.
type request struct {
	path  string
	body  []byte
	write bool
}

// sample is what one timed call produced. The timed window ends at the last
// byte of the response body; everything else in sample is filled in after.
type sample struct {
	op      int
	lat     time.Duration // due (open loop) or send (closed loop) → last body byte
	lag     time.Duration // send − max(due, connection free)
	status  int           // 0 = transport error
	err     string
	isWrite bool
	resp    parsed
}

func (s *sample) ok() bool { return s.status == http.StatusOK }

// driver sends prepared requests to one server over inFlight keep-alive
// connections.
type driver struct {
	links [inFlight]link
	// handle digests a response body outside the timed window. It runs on
	// the connection's goroutine, before that connection takes another op.
	handle func(write bool, body []byte) parsed
}

func newDriver(addr string, handle func(bool, []byte) parsed) *driver {
	d := &driver{handle: handle}
	for i := range d.links {
		d.links[i].addr = addr
	}
	return d
}

func (d *driver) close() {
	for i := range d.links {
		d.links[i].close()
	}
}

// call performs one request on l, timing from start to the last body byte.
func (d *driver) call(l *link, r request) (end time.Time, status int, err error) {
	status, err = l.do("POST", r.path, r.body)
	return time.Now(), status, err
}

// finish fills a sample from l's response after its timed window closed.
func (d *driver) finish(s *sample, l *link, status int, err error) {
	s.status = status
	if err != nil {
		s.status, s.err = 0, err.Error()
		return
	}
	if status != http.StatusOK {
		s.err = fmt.Sprintf("status %d: %s", status, truncate(string(l.body), 200))
		return
	}
	s.resp = d.handle(s.isWrite, l.body)
	if s.resp.err != "" {
		s.status, s.err = -1, s.resp.err
	}
}

// drive sends every request over inFlight connections, each connection
// taking the next one as soon as it is free, and returns one sample per
// request plus the phase's elapsed time. A write waits for the previous
// write to finish, which fixes the commit order (and so the state at every
// generation); that wait is inside the timed window.
//
// With rate > 0 the loop is open: reqs[i] is due at start + i/rate,
// whatever earlier calls did, and each call is timed from its due time, so
// a stall is charged to every request it delays. With rate == 0 the loop is
// closed: calls go back to back, each timed from its send.
//
// A connection is free from the last byte of its previous response, so the
// time it then spends in finish is dispatch lag of the next call, where the
// lag bound sees it. The elapsed time leaves that post-processing out: it
// is the wall time less each connection's mean time in finish.
//
// The phase starts on a freshly collected heap, so no run inherits a
// collection that the previous phase's garbage made due.
func (d *driver) drive(reqs []request, rate float64) ([]sample, time.Duration) {
	n := len(reqs)
	out := make([]sample, n)
	writeDone := make([]chan struct{}, n)
	prevWrite := make([]int, n)
	last := -1
	for i := range reqs {
		prevWrite[i] = -1
		if reqs[i].write {
			writeDone[i] = make(chan struct{})
			prevWrite[i] = last
			last = i
		}
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		post [inFlight]time.Duration
	)
	runtime.GC()
	start := time.Now().Add(20 * time.Millisecond)
	for c := 0; c < inFlight; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := &d.links[c]
			free := time.Now()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start
				if rate > 0 {
					due = start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
				}
				if w := time.Until(due); w > 0 {
					time.Sleep(w)
				}
				s := &out[i]
				s.op, s.isWrite = i, reqs[i].write
				if rate > 0 {
					ready := due
					if free.After(ready) {
						ready = free
					}
					s.lag = time.Since(ready)
				}
				if p := prevWrite[i]; p >= 0 {
					<-writeDone[p]
				}
				if rate == 0 {
					due = time.Now()
				}
				end, status, err := d.call(l, reqs[i])
				s.lat = end.Sub(due)
				d.finish(s, l, status, err)
				if reqs[i].write {
					close(writeDone[i])
				}
				post[c] += time.Since(end)
				free = end
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, p := range post {
		elapsed -= p / inFlight
	}
	return out, elapsed
}

// sequential sends reqs one at a time (warm-up and post-run checks).
func (d *driver) sequential(reqs []request) []sample {
	out := make([]sample, len(reqs))
	l := &d.links[0]
	for i, r := range reqs {
		sent := time.Now()
		end, status, err := d.call(l, r)
		out[i] = sample{op: i, lat: end.Sub(sent), isWrite: r.write}
		d.finish(&out[i], l, status, err)
	}
	return out
}

// get fetches a GET endpoint's body (scrapes; never timed). The body is
// valid until the driver's next call.
func (d *driver) get(path string) ([]byte, error) {
	l := &d.links[0]
	status, err := l.do("GET", path, nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, status)
	}
	return l.body, nil
}

// link is one keep-alive HTTP/1.1 connection. A call writes the request
// and reads the whole response on the caller's goroutine, into buffers
// the link reuses: net/http's client would add two goroutine hand-offs
// and a few kilobytes of garbage per call, work the server's CPUs would
// share with it.
type link struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	out  []byte // the request being written
	body []byte // the last response's body
}

// do sends one request and reads its response into l.body. A link that
// failed is closed, and the next call dials a new connection.
func (l *link) do(method, path string, body []byte) (int, error) {
	if l.c == nil {
		c, err := net.Dial("tcp", l.addr)
		if err != nil {
			return 0, err
		}
		l.c, l.br = c, bufio.NewReaderSize(c, 64<<10)
	}
	status, last, err := l.roundTrip(method, path, body)
	if err != nil || last {
		l.close()
	}
	return status, err
}

func (l *link) close() {
	if l.c != nil {
		l.c.Close()
		l.c = nil
	}
}

// roundTrip writes one request and reads the status, headers and body of
// its response. last reports that the server closes the connection after
// it.
func (l *link) roundTrip(method, path string, body []byte) (status int, last bool, err error) {
	l.out = append(l.out[:0], method...)
	l.out = append(l.out, ' ')
	l.out = append(l.out, path...)
	l.out = append(l.out, " HTTP/1.1\r\nHost: perfbench\r\n"...)
	if body != nil {
		l.out = append(l.out, "Content-Type: application/json\r\nContent-Length: "...)
		l.out = strconv.AppendInt(l.out, int64(len(body)), 10)
		l.out = append(l.out, "\r\n"...)
	}
	l.out = append(l.out, "\r\n"...)
	l.out = append(l.out, body...)
	if _, err := l.c.Write(l.out); err != nil {
		return 0, true, err
	}

	line, err := l.line()
	if err != nil {
		return 0, true, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, true, fmt.Errorf("malformed status line %q", line)
	}
	code, ok := parseUint(line[9:12], 10)
	if !ok {
		return 0, true, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked := -1, false
	for {
		h, err := l.line()
		if err != nil {
			return 0, true, err
		}
		if len(h) == 0 {
			break
		}
		k, v, ok := bytes.Cut(h, []byte(":"))
		if !ok {
			return 0, true, fmt.Errorf("malformed header %q", h)
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			n, ok := parseUint(v, 10)
			if !ok {
				return 0, true, fmt.Errorf("malformed header %q", h)
			}
			length = n
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		case bytes.EqualFold(k, []byte("Connection")):
			last = bytes.EqualFold(v, []byte("close"))
		}
	}

	l.body = l.body[:0]
	switch {
	case chunked:
		for {
			h, err := l.line()
			if err != nil {
				return 0, true, err
			}
			h, _, _ = bytes.Cut(h, []byte(";"))
			n, ok := parseUint(bytes.TrimSpace(h), 16)
			if !ok {
				return 0, true, fmt.Errorf("malformed chunk size %q", h)
			}
			if n == 0 {
				break
			}
			if err := l.read(n); err != nil {
				return 0, true, err
			}
			if crlf, err := l.line(); err != nil || len(crlf) != 0 {
				return 0, true, fmt.Errorf("malformed chunk end %q: %v", crlf, err)
			}
		}
		for { // trailers
			h, err := l.line()
			if err != nil {
				return 0, true, err
			}
			if len(h) == 0 {
				break
			}
		}
	case length >= 0:
		if err := l.read(length); err != nil {
			return 0, true, err
		}
	default:
		return 0, true, fmt.Errorf("response has neither a length nor chunks")
	}
	return code, last, nil
}

// line reads one CRLF-terminated line without its line end. It is valid
// until the next read.
func (l *link) line() ([]byte, error) {
	b, err := l.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(b[:len(b)-1], []byte("\r")), nil
}

// read appends the next n bytes of the connection to l.body.
func (l *link) read(n int) error {
	m := len(l.body)
	l.body = slices.Grow(l.body, n)[:m+n]
	_, err := io.ReadFull(l.br, l.body[m:])
	return err
}

// parseUint parses a non-empty unsigned number in the given base.
func parseUint(b []byte, base int) (int, bool) {
	if len(b) == 0 || len(b) > 15 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		var d int
		switch {
		case c >= '0' && c <= '9':
			d = int(c - '0')
		case base == 16 && c >= 'a' && c <= 'f':
			d = int(c-'a') + 10
		case base == 16 && c >= 'A' && c <= 'F':
			d = int(c-'A') + 10
		default:
			return 0, false
		}
		if d >= base {
			return 0, false
		}
		n = n*base + d
	}
	return n, true
}

// throughput is completed calls per second of a closed-loop phase.
func throughput(ss []sample, elapsed time.Duration) float64 {
	n := 0
	for i := range ss {
		if ss[i].ok() {
			n++
		}
	}
	return float64(n) / elapsed.Seconds()
}

// percentile returns the nearest-rank p-quantile of xs in milliseconds.
// Failed calls enter as +Inf: they miss every latency limit.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// latenciesMS returns the samples' latencies in ms, failures as +Inf.
func latenciesMS(ss []sample, keep func(*sample) bool) []float64 {
	var out []float64
	for i := range ss {
		s := &ss[i]
		if !keep(s) {
			continue
		}
		if s.ok() {
			out = append(out, ms(s.lat))
		} else {
			out = append(out, math.Inf(1))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func truncate(s string, n int) string {
	if len(s) > n {
		return s[:n] + "..."
	}
	return s
}
