package netcore_test

import (
	"sync"
	"testing"
	"time"

	"wanac/internal/netcore"
	"wanac/internal/tcpnet"
	"wanac/internal/udpnet"
)

// TestLiveNodeClock: the Now of both live transports (netcore.Clock)
// carries a monotonic reading, its wall part never goes back across
// concurrent callers, and it is the system clock's.
func TestLiveNodeClock(t *testing.T) {
	tn, err := tcpnet.ListenConfig("t", "127.0.0.1:0", netcore.BuildConfig())
	un, err2 := udpnet.ListenConfig("u", "127.0.0.1:0", netcore.BuildConfig())
	if err != nil || err2 != nil {
		t.Fatal(err, err2)
	}
	defer tn.Close()
	defer un.Close()
	for _, n := range []interface{ Now() time.Time }{tn, un} {
		if now := n.Now(); now == now.Round(0) {
			t.Fatalf("%T: Now carries no monotonic reading", n)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				last := n.Now()
				for i := 0; i < 10_000; i++ {
					now := n.Now()
					if now.Round(0).Before(last.Round(0)) {
						t.Errorf("%T: Now went back from %v to %v", n, last, now)
						return
					}
					last = now
				}
			}()
		}
		wg.Wait()
		if d := n.Now().Round(0).Sub(time.Now().Round(0)); d.Abs() > 50*time.Millisecond {
			t.Errorf("%T: Now's wall part is %v off the system clock", n, d)
		}
	}
}
