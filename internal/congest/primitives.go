package congest

// The BFS and flood programs the "bfs" and "broadcast" workloads run
// (built by BFSPrograms and FloodPrograms, wire.go).

// BFSResult describes a breadth-first spanning tree computed distributedly.
type BFSResult struct {
	Root   int
	Parent []int // Parent[v] = BFS parent, -1 for the root
	Dist   []int // Dist[v] = hop distance from the root
}

type bfsProgram struct {
	root   bool
	dist   int
	parent int
	res    *BFSResult
}

// bfsToken packs a BFS token: the sender's hop distance rides in A.
func bfsToken(dist int) Message { return Message{Kind: kindBFS, A: int32(dist)} }

func (p *bfsProgram) Init(ctx *Ctx) {
	p.dist = -1
	p.parent = -1
	if p.root {
		p.dist = 0
		ctx.Broadcast(bfsToken(0))
	}
}

func (p *bfsProgram) Step(ctx *Ctx, inbox []Inbound) {
	if p.dist >= 0 {
		p.record(ctx)
		return
	}
	for _, in := range inbox {
		if in.Payload.Kind != kindBFS {
			PanicUnknownKind("congest: BFS", ctx, in)
		}
		if p.dist < 0 {
			p.dist = int(in.Payload.A) + 1
			p.parent = int(in.From)
			ctx.Broadcast(bfsToken(p.dist))
		}
	}
	if p.dist >= 0 {
		p.record(ctx)
	}
}

func (p *bfsProgram) record(ctx *Ctx) {
	p.res.Parent[ctx.ID()] = p.parent
	p.res.Dist[ctx.ID()] = p.dist
	ctx.Halt()
}

// FloodValue unpacks a flood record: the flooded value, and whether m is
// a flood record at all (the empty record of an unreached node is not).
func FloodValue(m Message) (value int, ok bool) { return int(int64(m.W)), m.Kind == kindFlood }

type floodProgram struct {
	root  bool
	value Message
	got   bool
	out   []Message
}

func (p *floodProgram) Init(ctx *Ctx) {
	if p.root {
		p.got = true
		p.out[ctx.ID()] = p.value
		ctx.Broadcast(p.value)
	}
}

func (p *floodProgram) Step(ctx *Ctx, inbox []Inbound) {
	if p.got {
		ctx.Halt()
		return
	}
	if len(inbox) > 0 {
		if inbox[0].Payload.Kind != kindFlood {
			PanicUnknownKind("congest: flood", ctx, inbox[0])
		}
		p.got = true
		p.out[ctx.ID()] = inbox[0].Payload
		ctx.Broadcast(inbox[0].Payload)
		ctx.Halt()
	}
}
