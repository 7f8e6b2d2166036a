// Command acctl drives acnode deployments: it issues Add/Revoke operations
// to a manager, Invoke requests to an application host, and — acting as an
// ephemeral host — quorum access checks against the manager set.
//
//	acctl -to m0=127.0.0.1:7000 grant  stocks alice        # use right
//	acctl -to m0=127.0.0.1:7000 grant  stocks bob manage   # manage right
//	acctl -to m0=127.0.0.1:7000 revoke stocks alice
//	acctl -to h0=127.0.0.1:7100 invoke stocks alice "quote ACME"
//	acctl -to m0=127.0.0.1:7000,m1=127.0.0.1:7001,m2=127.0.0.1:7002 -c 2 \
//	      check stocks alice
//
// Grant/revoke wait for the update quorum acknowledgment (the point at
// which the Te guarantee begins); invoke prints the application's reply;
// check runs the host-side check protocol (Figure 2) against every manager
// in -to, reports the quorum decision, and — via an ephemeral audit
// recorder on the same decision path acnode audits — prints the decision's
// reason and evidence. To explain past decisions or render a node's flight
// timeline, point acaudit at the nodes' -debug.addr endpoints.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"wanac"
	"wanac/internal/audit"
	"wanac/internal/auth"
	"wanac/internal/core"
	"wanac/internal/wire"
)

func main() {
	var (
		to      = flag.String("to", "", "target node(s) as comma-separated id=addr (required)")
		issuer  = flag.String("issuer", "root", "issuing manager user for grant/revoke")
		timeout = flag.Duration("timeout", 10*time.Second, "reply timeout")
		trans   = flag.String("transport", "tcp", "tcp | udp (must match the target acnode)")
		keyFile = flag.String("key", "", "private key file from ackeygen: seal and sign operations")
		asUser  = flag.String("as", "", "identity for the -key (defaults to -issuer for grant/revoke, <user> for invoke)")
		quorum  = flag.Int("c", 1, "check: quorum C over the managers listed in -to")
	)
	flag.Parse()
	if err := run(*to, *issuer, *timeout, *trans, *keyFile, *asUser, *quorum, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "acctl:", err)
		os.Exit(1)
	}
}

func run(to, issuer string, timeout time.Duration, trans, keyFile, asUser string, quorum int, args []string) error {
	targets, err := parseTargets(to)
	if err != nil {
		return err
	}
	if len(args) < 3 {
		return fmt.Errorf("usage: acctl -to id=addr[,id=addr...] grant|revoke|invoke|check <app> <user> [right|payload]")
	}
	verb, app, user := args[0], wire.AppID(args[1]), wire.UserID(args[2])

	var signer *auth.Ed25519Signer
	if keyFile != "" {
		raw, err := os.ReadFile(keyFile)
		if err != nil {
			return err
		}
		signer, err = auth.ParseEd25519Signer(string(raw))
		if err != nil {
			return err
		}
	}
	seal := func(identity wire.UserID, msg wire.Message) (wire.Message, error) {
		if signer == nil {
			return msg, nil
		}
		if asUser != "" {
			identity = wire.UserID(asUser)
		}
		return auth.Seal(identity, signer, msg)
	}

	node, err := wanac.Listen(trans, "acctl", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer node.Close()
	for _, tgt := range targets {
		if err := node.AddPeer(tgt.id, tgt.addr); err != nil {
			return err
		}
	}
	primary := targets[0].id

	if verb == "check" {
		return runCheck(node, targets, app, user, quorum, timeout, args)
	}

	replies := make(chan wire.Message, 4)
	node.SetHandler(handlerFunc(func(_ wire.NodeID, msg wire.Message) { replies <- msg }))

	switch verb {
	case "grant", "revoke":
		op := wire.OpAdd
		if verb == "revoke" {
			op = wire.OpRevoke
		}
		right := wire.RightUse
		if len(args) >= 4 && args[3] == "manage" {
			right = wire.RightManage
		}
		msg, err := seal(wire.UserID(issuer), wire.AdminOp{
			Op: op, App: app, User: user, Right: right,
			Issuer: wire.UserID(issuer), ReqID: uint64(time.Now().UnixNano()),
		})
		if err != nil {
			return err
		}
		node.Send(primary, msg)
		// First reply: accepted/rejected. Second: quorum reached.
		deadline := time.After(timeout)
		for {
			select {
			case msg := <-replies:
				r, ok := msg.(wire.AdminReply)
				if !ok {
					continue
				}
				switch {
				case r.Err != "":
					return fmt.Errorf("rejected: %s", r.Err)
				case r.QuorumReached:
					fmt.Printf("%s %s %s: update quorum reached — revocation bound active\n", verb, app, user)
					return nil
				case r.Accepted:
					fmt.Printf("%s %s %s: accepted, waiting for update quorum...\n", verb, app, user)
				}
			case <-deadline:
				return fmt.Errorf("timed out waiting for quorum (operation may still complete)")
			}
		}
	case "invoke":
		var payload []byte
		if len(args) >= 4 {
			payload = []byte(args[3])
		}
		msg, err := seal(user, wire.Invoke{App: app, User: user, ReqID: 1, Payload: payload})
		if err != nil {
			return err
		}
		node.Send(primary, msg)
		select {
		case msg := <-replies:
			r, ok := msg.(wire.InvokeReply)
			if !ok {
				return fmt.Errorf("unexpected reply %T", msg)
			}
			if !r.Allowed {
				return fmt.Errorf("access denied for %s on %s", user, app)
			}
			fmt.Printf("allowed; application replied: %s\n", r.Output)
			return nil
		case <-time.After(timeout):
			return fmt.Errorf("timed out")
		}
	default:
		return fmt.Errorf("unknown verb %q", verb)
	}
}

// runCheck performs a live access check: acctl becomes an ephemeral host,
// registers the managers listed in -to, and runs the Figure 2 check
// protocol through Host.CheckContext.
func runCheck(node wanac.Transport, targets []target, app wire.AppID, user wire.UserID, quorum int, timeout time.Duration, args []string) error {
	right := wire.RightUse
	if len(args) >= 4 && args[3] == "manage" {
		right = wire.RightManage
	}
	managers := make([]wire.NodeID, len(targets))
	for i, tgt := range targets {
		managers[i] = tgt.id
	}
	host := core.NewHost(node.ID(), node, nil, nil)
	// The same provenance path acnode records: the last ring entry is this
	// check's decision record, printed below as reason + evidence.
	rec := audit.NewRecorder(string(node.ID()), 4, nil)
	host.SetAudit(rec)
	if err := host.RegisterApp(app, core.HostAppConfig{
		Managers: managers,
		Policy: core.Policy{
			CheckQuorum: quorum,
			Te:          time.Minute,
			// Two attempts must finish inside the context deadline with
			// room for the decision to land, or an unreachable manager
			// surfaces as a context error instead of a clean fail-safe deny.
			QueryTimeout: timeout / 3,
			MaxAttempts:  2,
		},
	}); err != nil {
		return err
	}
	node.SetHandler(host)

	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	d, err := host.CheckContext(ctx, app, user, right)
	if err != nil {
		return err
	}
	if recs := rec.Snapshot(); len(recs) > 0 {
		r := recs[len(recs)-1]
		fmt.Println(r.Headline())
		fmt.Println("  evidence:", r.Evidence())
	}
	if !d.Allowed {
		return fmt.Errorf("denied: %s lacks %s on %s (confirmations %d/%d)",
			user, right, app, d.Confirmations, quorum)
	}
	fmt.Printf("allowed: %s has %s on %s (%d confirmations in %d attempt(s))\n",
		user, right, app, d.Confirmations, d.Attempts)
	return nil
}

type target struct {
	id   wire.NodeID
	addr string
}

func parseTargets(s string) ([]target, error) {
	if s == "" {
		return nil, fmt.Errorf("-to is required")
	}
	var out []target
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 || kv[0] == "" || kv[1] == "" {
			return nil, fmt.Errorf("bad -to entry %q (want id=addr)", part)
		}
		out = append(out, target{wire.NodeID(kv[0]), kv[1]})
	}
	return out, nil
}

type handlerFunc func(from wire.NodeID, msg wire.Message)

func (f handlerFunc) HandleMessage(from wire.NodeID, msg wire.Message) { f(from, msg) }
