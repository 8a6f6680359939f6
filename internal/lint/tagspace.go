package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"hcmpi/internal/mpi"
)

// TagSpace polices the module's MPI tag namespace against the central
// registry in internal/mpi/tags.go. Reserved tag blocks (negative, one
// per protocol subsystem: dddf, rma, distsched, the TCP heartbeat) are
// claimed by exactly one owning package; a literal or constant tag that
// lands inside another subsystem's block is how two protocols silently
// steal each other's messages — the communication worker dispatches by
// tag alone, so a collision is data corruption, not an error.
//
// Three checks:
//
//  1. Constant declarations whose value lies in a reserved block owned
//     by a different package (the registry package itself is exempt —
//     it declares every block).
//  2. Tag arguments at send/receive/listen call sites, same ownership
//     rule, matched by the callee's parameter literally named "tag" so
//     the check follows any API with MPI tag semantics.
//  3. Orphan system tags: a system-space constant tag (negative or
//     above MaxUserTag) that is sent somewhere in the module but never
//     received or listened for — or received but never sent — cannot
//     match and indicates a protocol wiring bug. Test files and the
//     transport package itself (whose conformance harness exercises
//     arbitrary tags) are excluded.
var TagSpace = &Analyzer{
	Name: "tag-space",
	Doc:  "reserved MPI tag blocks are used only by their owning subsystem, and system tags pair up",
	RunModule: func(pkgs []*Package) []Finding {
		return runTagSpace(pkgs)
	},
}

// registryPath is the package that declares every reserved block.
const registryPath = "hcmpi/internal/mpi"

// tagSendCallees / tagRecvCallees classify tag-parameter APIs by name
// (NewOutbox: everything appended to an outbox is sent on its tag).
var tagSendCallees = map[string]bool{
	"Send": true, "Isend": true, "SendReserved": true, "IsendReserved": true,
	"NewOutbox": true,
}
var tagRecvCallees = map[string]bool{
	"Recv": true, "Irecv": true, "IrecvReserved": true, "Listen": true,
	"Iprobe": true,
}

// ownerPath normalizes a package path for ownership comparison: the
// external-test variant of a package shares its owner.
func ownerPath(p *Package) string {
	return strings.TrimSuffix(p.Path, "_test")
}

// tagSite is one constant system tag at a send/recv call site.
type tagSite struct {
	pos  token.Pos
	pkg  *Package
	tag  int
	send bool
}

func runTagSpace(pkgs []*Package) []Finding {
	var out []Finding
	var sites []tagSite
	flagged := map[token.Pos]bool{}

	for _, p := range pkgs {
		owner := ownerPath(p)
		exempt := owner == registryPath
		for _, f := range p.Files {
			fname := p.position(f.Pos()).Filename
			isTest := strings.HasSuffix(fname, "_test.go")
			ast.Inspect(f, func(node ast.Node) bool {
				switch v := node.(type) {
				case *ast.ValueSpec:
					for _, name := range v.Names {
						c, ok := p.Info.Defs[name].(*types.Const)
						if !ok {
							continue
						}
						tag, ok := constInt(c.Val())
						if !ok {
							continue
						}
						r, reserved := mpi.ReservedRangeOf(tag)
						if reserved && !exempt && r.Owner != owner {
							out = append(out, p.findingf("tag-space", name.Pos(),
								"constant %s = %d lies in reserved tag block %q [%d,%d] owned by %s",
								name.Name, tag, r.Name, r.Lo, r.Hi, r.Owner))
						}
					}
				case *ast.CallExpr:
					fn := calleeFunc(p, v)
					if fn == nil {
						return true
					}
					isSend, isRecv := tagSendCallees[fn.Name()], tagRecvCallees[fn.Name()]
					if !isSend && !isRecv {
						return true
					}
					arg := tagArg(fn, v)
					if arg == nil {
						return true
					}
					tv, ok := p.Info.Types[arg]
					if !ok || tv.Value == nil {
						return true
					}
					tag, ok := constInt(tv.Value)
					if !ok {
						return true
					}
					if r, reserved := mpi.ReservedRangeOf(tag); reserved && !exempt && r.Owner != owner {
						out = append(out, p.findingf("tag-space", arg.Pos(),
							"tag %d at %s call lies in reserved block %q owned by %s",
							tag, fn.Name(), r.Name, r.Owner))
						flagged[arg.Pos()] = true
					}
					if systemTag(tag) && !exempt && !isTest {
						sites = append(sites, tagSite{pos: arg.Pos(), pkg: p, tag: tag, send: isSend})
					}
				}
				return true
			})
		}
	}

	// Orphan matching over the collected system-tag sites.
	sent, recvd := map[int]bool{}, map[int]bool{}
	for _, s := range sites {
		if s.send {
			sent[s.tag] = true
		} else {
			recvd[s.tag] = true
		}
	}
	for _, s := range sites {
		if flagged[s.pos] {
			continue // already reported as an ownership violation
		}
		if s.send && !recvd[s.tag] {
			out = append(out, s.pkg.findingf("tag-space", s.pos,
				"system tag %d is sent here but never received or listened for anywhere in the module", s.tag))
		}
		if !s.send && !sent[s.tag] {
			out = append(out, s.pkg.findingf("tag-space", s.pos,
				"system tag %d is received here but never sent anywhere in the module", s.tag))
		}
	}
	return dedupe(out)
}

// systemTag reports whether tag lies outside the user tag space.
func systemTag(tag int) bool { return tag < 0 || tag >= mpi.MaxUserTag }

// tagArg returns the argument bound to the callee's parameter named
// "tag", or nil when the callee has no such parameter.
func tagArg(fn *types.Func, call *ast.CallExpr) ast.Expr {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if params.At(i).Name() == "tag" {
			if sig.Variadic() && i >= params.Len()-1 {
				return nil
			}
			if i < len(call.Args) {
				return call.Args[i]
			}
		}
	}
	return nil
}

func constInt(v constant.Value) (int, bool) {
	if v == nil || v.Kind() != constant.Int {
		return 0, false
	}
	i, ok := constant.Int64Val(v)
	return int(i), ok
}
