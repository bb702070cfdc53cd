package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/attack"
	"repro/internal/defense"
	"repro/internal/detect"
	"repro/internal/eval"
	"repro/internal/exp"
	"repro/internal/imaging"
	"repro/internal/nn"
	"repro/internal/regress"
	"repro/internal/scene"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// layerBatch is the batch the model and attack calls run on (the models'
// own block size).
const layerBatch = 8

// layerPass calls the lower layers' exported functions directly on the
// workload's own inputs (its environment's datasets and victims, and the
// result its spec produced) and reports each call's time. Every call is a
// span named after its layer, so the trace's self times split by layer.
func (r *run) layerPass(ctx context.Context, env *eval.Env, spec exp.Spec) error {
	id, close := r.tr.open("bench.layer_pass", 0)
	defer close()
	lp := &layerTimer{r: r, parent: id}
	p := env.Preset
	rng := xrand.New(p.Seed + 900)

	drive := make([]*imaging.Image, layerBatch)
	masks := make([]*tensor.Tensor, layerBatch)
	dst := make([]*imaging.Image, layerBatch)
	signs := make([]*imaging.Image, layerBatch)
	for i := range drive {
		sc := env.DriveTest.Scenes[i%env.DriveTest.Len()]
		drive[i] = sc.Img
		masks[i] = attack.BoxMask(sc.Img.C, sc.Img.H, sc.Img.W, sc.LeadBox, 1)
		dst[i] = imaging.NewImage(sc.Img.C, sc.Img.H, sc.Img.W)
		signs[i] = env.SignTestSet.Scenes[i%env.SignTestSet.Len()].Img
	}
	frame := env.DriveTest.Scenes[0]
	var signScene scene.SignScene
	for _, sc := range env.SignTestSet.Scenes {
		if sc.HasSign {
			signScene = sc
			break
		}
	}

	// Experiment phase and models: victim training as set-up runs it.
	lp.once("detect.train", func() {
		d := detect.New(xrand.New(p.Seed+11), env.SignCfg.Size)
		cfg := detect.DefaultTrainConfig()
		cfg.Epochs, cfg.Seed = p.DetEpochs, p.Seed+1
		d.Train(env.SignTrainSet, cfg)
	})
	lp.once("regress.train", func() {
		m := regress.New(xrand.New(p.Seed+12), env.DriveCfg.Size)
		cfg := regress.DefaultTrainConfig()
		cfg.Epochs, cfg.Seed = p.RegEpochs, p.Seed+2
		m.Train(env.DriveTrain, cfg)
	})
	lp.once("defense.adv_train", func() {
		gts := make([][]detect.Box, env.SignTrainSet.Len())
		imgs := make([]*imaging.Image, env.SignTrainSet.Len())
		for i, sc := range env.SignTrainSet.Scenes {
			gts[i], imgs[i] = detect.GTBoxes(sc), sc.Img
		}
		dcfg := detect.DefaultTrainConfig()
		dcfg.Epochs = p.AdvEpochs
		defense.AdvTrainDetector(env.Det, imgs, gts, dcfg)
		dimgs := make([]*imaging.Image, env.DriveTrain.Len())
		dists := make([]float64, env.DriveTrain.Len())
		for i, sc := range env.DriveTrain.Scenes {
			dimgs[i], dists[i] = sc.Img, sc.Distance
		}
		rcfg := regress.DefaultTrainConfig()
		rcfg.Epochs = p.AdvEpochs
		defense.AdvTrainRegressor(env.Reg, dimgs, dists, rcfg)
	})
	preds := make([]float64, layerBatch)
	lp.each("regress.predict_batch", 10, func() { env.Reg.PredictBatchInto(preds, drive) })
	lp.each("detect.forward_batch", 10, func() { env.Det.ForwardBatch(signs) })

	dcfg := defense.DefaultDiffusionConfig()
	dcfg.TrainSteps, dcfg.Seed = 3, p.Seed+3
	diff := defense.NewDiffusion(xrand.New(p.Seed+4), dcfg)
	lp.scaled("defense.diffusion_step", dcfg.TrainSteps, func() {
		pick := xrand.New(p.Seed + 5)
		diff.Train(dcfg, func() *imaging.Image { return drive[pick.Intn(len(drive))] })
	})
	x := frame.Img.Tensor()
	stack := tensor.New(5, x.Dim(1), x.Dim(2))
	rng.FillNormal(stack.Data(), 0, 1)
	var out *tensor.Tensor
	lp.each("defense.unet_forward", 5, func() { out = diff.Net.Forward(stack, true) })
	grad := tensor.New(out.Shape()...)
	rng.FillNormal(grad.Data(), 0, 1)
	lp.each("defense.unet_backward", 5, func() {
		diff.Net.ZeroGrad()
		diff.Net.Backward(grad)
	})

	// Attacks, on the regressor (and detector) the workload trained.
	b := env.Budgets
	robj := &attack.RegressionObjective{Reg: env.Reg}
	lp.each("attack.fgsm_batch", 5, func() { attack.FGSMBatch(dst, robj, drive, b.RegFGSMEps, masks) })
	apgd := attack.DefaultAPGDConfig(b.RegAPGDEps)
	apgd.Steps = p.APGDSteps
	lp.each("attack.autopgd_batch", 3, func() { attack.AutoPGDBatch(robj, drive, apgd, masks) })
	capAtt := attack.NewCAP(attack.DefaultCAPConfig())
	i := 0
	lp.each("attack.cap_apply", 10, func() {
		sc := env.DriveTest.Scenes[i%env.DriveTest.Len()]
		capAtt.Apply(robj, sc.Img, sc.LeadBox)
		i++
	})
	dobj := &attack.DetectionObjective{Det: env.Det, GT: detect.GTBoxes(signScene)}
	simba := attack.DefaultSimBAConfig()
	simba.Eps, simba.Steps = b.DetSimBAEps, p.SimBASteps
	lp.each("attack.simba", 3, func() { attack.SimBA(dobj, signScene.Img, simba, nil) })
	rp2 := attack.DefaultRP2Config()
	rp2.Iters = p.RP2Iters
	lp.each("attack.rp2", 3, func() { attack.RP2(dobj, signScene.Img, signScene.Box, rp2) })

	// Preprocessing defenses, per frame.
	rnd := defense.NewRandomization(p.Seed + 5)
	for _, d := range []struct {
		name string
		prep defense.Preprocessor
	}{{"defense.median", defense.NewMedianBlur()}, {"defense.bitdepth", defense.NewBitDepth()}, {"defense.randomization", rnd}} {
		k := 0
		lp.each(d.name, 20, func() {
			d.prep.Process(drive[k%len(drive)])
			k++
		})
	}
	pir := defense.DefaultDiffPIRConfig()
	pir.Steps = p.DiffPIRSteps
	lp.each("defense.diffpir_restore", 3, func() { diff.Restore(frame.Img, pir) })

	// Scene rendering, per frame.
	rd := scene.NewRenderer(xrand.New(p.Seed+6), env.DriveCfg)
	dist := 10.0
	lp.each("scene.render", 20, func() {
		rd.Render(dist)
		dist += 3
	})

	// Layer ops and kernels at the regressor's first conv and the UNet's
	// first conv.
	lp.conv("reg", rng, 3, 12, 2, layerBatch, x.Dim(1))
	lp.conv("unet", rng, 5, 10, 1, 1, x.Dim(1))

	// Serving-path primitives on the workload's own spec and result.
	lp.perCall("exp.spec_hash", 200, func() { exp.SpecHash(spec) })
	xe, err := exp.New(ctx, exp.WithEnv(env))
	if err != nil {
		return err
	}
	result, err := xe.Run(ctx, spec)
	if err != nil {
		return err
	}
	key, err := exp.SpecHash(spec)
	if err != nil {
		return err
	}
	var payload []byte
	lp.perCall("serve.encode_result", 50, func() { payload, err = serve.EncodeResult(key, result) })
	if err != nil {
		return err
	}
	dc, err := serve.NewDiskCache(r.dir("layer-cache"), nil)
	if err != nil {
		return err
	}
	dc.Put(key, payload)
	lp.perCall("serve.diskcache_get", 200, func() { dc.Get(key) })
	return nil
}

// layerTimer times lower-layer calls as spans under the layer pass.
type layerTimer struct {
	r      *run
	parent int
}

// once times a single call and reports it in seconds.
func (l *layerTimer) once(name string, fn func()) {
	start := time.Now()
	fn()
	end := time.Now()
	l.r.tr.record(name, l.parent, start, end)
	l.r.setLayer(name+"_s", end.Sub(start).Seconds(), "s")
}

// each times n calls one by one and reports the median in ms; the first
// call warms workspaces and is not counted.
func (l *layerTimer) each(name string, n int, fn func()) { l.eachAfter(name, n, nil, fn) }

// eachAfter is each with an untimed prep call before every timed call.
func (l *layerTimer) eachAfter(name string, n int, prep, fn func()) {
	if prep != nil {
		prep()
	}
	fn()
	xs := make([]float64, n)
	for i := range xs {
		if prep != nil {
			prep()
		}
		start := time.Now()
		fn()
		end := time.Now()
		l.r.tr.record(name, l.parent, start, end)
		xs[i] = ms(end.Sub(start))
	}
	l.r.setLayer(name+"_ms", median(xs), "ms")
}

// scaled times one call that does n units of work and reports ms per unit.
func (l *layerTimer) scaled(name string, n int, fn func()) {
	start := time.Now()
	fn()
	end := time.Now()
	l.r.tr.record(name, l.parent, start, end)
	l.r.setLayer(name+"_ms", ms(end.Sub(start))/float64(n), "ms")
}

// perCall times calls too short to time one by one: five rounds of n
// calls, reporting the median round's time per call in µs.
func (l *layerTimer) perCall(name string, n int, fn func()) {
	fn()
	xs := make([]float64, 5)
	for i := range xs {
		start := time.Now()
		for j := 0; j < n; j++ {
			fn()
		}
		end := time.Now()
		l.r.tr.record(name, l.parent, start, end)
		xs[i] = float64(end.Sub(start)) / float64(n)
	}
	l.r.setLayer(name+"_us", median(xs)/1e3, "us")
}

// conv times a 3×3 conv layer (forward, backward with the weight gradient,
// input gradient only) and its kernels (im2row, the SGEMM, row2im) on an
// [n, inC, size, size] input, and counts each kernel call's computed flops
// and bytes.
func (l *layerTimer) conv(tag string, rng *xrand.RNG, inC, outC, stride, n, size int) {
	conv := nn.NewConv2D(rng, inC, outC, 3, stride, 1)
	x := tensor.New(n, inC, size, size)
	rng.FillUniform(x.Data(), 0, 1)
	var y *tensor.Tensor
	l.each("nn.conv_forward."+tag, 10, func() { y = conv.Forward(x, true) })
	g := tensor.New(y.Shape()...)
	rng.FillNormal(g.Data(), 0, 1)
	forward := func() { conv.Forward(x, true) }
	l.eachAfter("nn.conv_backward."+tag, 10, forward, func() { conv.Backward(g) })
	l.eachAfter("nn.conv_backward_input."+tag, 10, forward, func() { conv.BackwardInput(g) })

	geom := tensor.ConvGeom{InC: inC, InH: size, InW: size, K: 3, Stride: stride, Pad: 1}
	rows := n * geom.OutH() * geom.OutW()
	k := inC * 9
	patches := tensor.New(rows, k)
	w := tensor.New(k, outC)
	rng.FillNormal(w.Data(), 0, 0.1)
	out := tensor.New(rows, outC)
	back := tensor.New(n, inC, size, size)
	l.each("tensor.im2row."+tag, 20, func() { tensor.Im2RowInto(patches, x, geom) })
	l.each("tensor.sgemm."+tag, 20, func() { tensor.MatMulKMajorInto(out, patches, w) })
	l.each("tensor.row2im."+tag, 20, func() { tensor.Row2ImInto(back, patches, geom) })
	flops := 2 * int64(rows) * int64(k) * int64(outC)
	sg := l.r.layer["tensor.sgemm."+tag+"_ms"].Value
	l.r.setLayer("tensor.sgemm_gflops."+tag, float64(flops)/(sg*1e6), "GFLOP/s")
	l.r.count(fmt.Sprintf("computed.sgemm_flops.%s", tag), flops)
	// A conv forward is one such SGEMM; its backward adds the weight and
	// input gradients (one SGEMM-sized product each); the input-gradient-only
	// backward adds one.
	l.r.count(fmt.Sprintf("computed.conv_forward_flops.%s", tag), flops)
	l.r.count(fmt.Sprintf("computed.conv_backward_flops.%s", tag), 2*flops)
	l.r.count(fmt.Sprintf("computed.conv_backward_input_flops.%s", tag), flops)
	l.r.count(fmt.Sprintf("computed.sgemm_bytes.%s", tag), 4*(int64(rows)*int64(k)+int64(k)*int64(outC)+int64(rows)*int64(outC)))
	lowered := 4 * (int64(x.Len()) + int64(rows)*int64(k))
	l.r.count(fmt.Sprintf("computed.im2row_bytes.%s", tag), lowered)
	l.r.count(fmt.Sprintf("computed.row2im_bytes.%s", tag), lowered)
}
