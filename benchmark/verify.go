package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"time"
)

// Output verification and failure accounting. An op counts as failed
// when its Status carries an error (opTimeout turns a hang into
// ErrTimeout), or when its output misses the check below. A window that
// hangs as a whole is killed by the parent's watchdog and its ops are
// counted as failed.

// opTimeout is Config.OpTimeout on every node the benchmark starts.
const opTimeout = 5 * time.Second

// corruptOp is a test-only hook: when ≥ 0, client 0 damages the output
// of its op with that index before checking it, and the check must then
// count the op as failed.
var corruptOp = -1

// client records the ops of one closed-loop caller. It belongs to that
// caller's goroutine alone.
type client struct {
	id     int
	lat    []int64 // ns per op
	failed int
	sb     *spanBuf
	every  int // 1 op in every is traced
}

func newClient(id, ops int, sb *spanBuf, every int) *client {
	return &client{id: id, lat: make([]int64, 0, ops), sb: sb, every: every}
}

// done records one op that started at t0.
func (c *client) done(t0 time.Time, ok bool) { c.doneNS(int64(time.Since(t0)), ok) }

func (c *client) doneNS(ns int64, ok bool) {
	c.lat = append(c.lat, ns)
	if !ok {
		c.failed++
	}
}

// tamper reports whether the test hook wants op i's output damaged.
func (c *client) tamper(i int) bool { return c.id == 0 && i == corruptOp }

// span returns the buffer to trace op i into, or nil.
func (c *client) span(i int) *spanBuf { return c.sb.sampled(i, c.every) }

// merge pools the clients of a window: latencies ascending, failures
// summed.
func merge(cs []*client) (lat []int64, failed int) {
	for _, c := range cs {
		lat = append(lat, c.lat...)
		failed += c.failed
	}
	slices.Sort(lat)
	return lat, failed
}

// checkValue verifies a DDDF's bytes against the function of its guid.
func checkValue(got []byte, guid int64, salt uint64, scratch []byte) bool {
	fillValue(scratch, guid, salt)
	return bytes.Equal(got, scratch)
}

// allreduceInput fills rank r's contribution to op i; allreduceOK checks
// the sum over ranks against the closed form.
func allreduceInput(buf []byte, r, i int, salt uint64) {
	for j := 0; j < len(buf)/8; j++ {
		binary.LittleEndian.PutUint64(buf[8*j:], uint64(r+1)*uint64(i+j)+salt)
	}
}

func allreduceOK(res []byte, ranks, i int, salt uint64) bool {
	if len(res) != allreduceWords*8 {
		return false
	}
	tri := uint64(ranks * (ranks + 1) / 2)
	for j := 0; j < allreduceWords; j++ {
		if binary.LittleEndian.Uint64(res[8*j:]) != tri*uint64(i+j)+uint64(ranks)*salt {
			return false
		}
	}
	return true
}

// stream checks one sender→receiver message sequence for exactly-once,
// in-order delivery: message k of a tag must carry sequence number k, so
// a lost, repeated or overtaken message shows as a mismatch.
type stream struct{ next uint64 }

func (s *stream) inOrder(seq uint64) bool {
	ok := seq == s.next
	s.next++
	return ok
}

// --- window watchdog (parent side) ---

// event is one line of the child's standard output.
type event struct {
	Window *window  `json:"window,omitempty"`
	Final  *summary `json:"final,omitempty"`
}

// runChild re-executes the benchmark as the measuring subprocess and
// feeds its events to handle. It kills a child that is still running
// after limit and reports that as an error; the caller then counts the
// ops of the unfinished window as failed.
func runChild(args []string, limit time.Duration, handle func(event)) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, append([]string{"-child"}, args...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	watchdog := time.AfterFunc(limit, func() { _ = cmd.Process.Kill() }) // Kill fails only once the child has exited
	defer watchdog.Stop()

	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			return fmt.Errorf("child wrote a line that is not an event: %w", err)
		}
		handle(ev)
	}
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("measuring subprocess: %w", err)
	}
	return sc.Err()
}
