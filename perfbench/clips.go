package main

import (
	"bytes"
	"fmt"
	"mime/multipart"

	"github.com/sljmotion/sljmotion/internal/clipio"
	"github.com/sljmotion/sljmotion/internal/imaging"
	"github.com/sljmotion/sljmotion/internal/stickmodel"
	"github.com/sljmotion/sljmotion/internal/synth"
)

// geometry is a clip's frame size and the body/jump scale that fits it.
type geometry struct {
	W, H, Frames int
	FloorY       int
	StartX       float64
	ApexRise     float64
	// Heights and Jumps are the body heights and jump lengths (pixels)
	// the strata cycle through.
	Heights []float64
	Jumps   []float64
}

// canonical is the paper-sized clip: 20 frames of 192×144, the frame
// geometry of synth.DefaultJumpParams, with bodies of 52–60 px and jumps of
// 58–68 px. Not every clip of that range is analysed within the
// ground-truth tolerances (from a 58 px body up, the no-knee-bend clip can
// lose half its silhouette in one frame); such clips stay in the mix.
var canonical = geometry{
	W: 192, H: 144, Frames: 20, FloorY: 124, StartX: 46, ApexRise: 16,
	Heights: []float64{52, 54, 56, 58, 60},
	Jumps:   []float64{58, 64, 68},
}

// strata is the number of clip kinds of a mix: the good-form clip and one
// clip per planted form defect (synth.DefectClips).
const strata = 8

// clip is one generated input with its ground truth.
type clip struct {
	name   string
	video  *synth.Video
	manual stickmodel.Pose
}

// clipParams returns stratum k of a mix drawn from seed: defect k%8, and
// body height and jump length cycling through the geometry's ranges so
// every run of the same length covers the same strata. The seed varies the
// rendering noise and the first-frame annotation of every clip.
func clipParams(g geometry, seed int64, k int) (synth.JumpParams, int64, string) {
	base := synth.DefaultJumpParams()
	base.W, base.H, base.Frames = g.W, g.H, g.Frames
	base.FloorY, base.StartX, base.ApexRise = g.FloorY, g.StartX, g.ApexRise
	d := synth.DefectClips(base)[k%strata]
	p := d.Params
	p.BodyHeight = g.Heights[k%len(g.Heights)]
	p.JumpPx = g.Jumps[(k/len(g.Heights))%len(g.Jumps)]
	p.Seed = seed*7919 + int64(k) + 1
	annot := seed*104729 + int64(k) + 1
	name := fmt.Sprintf("%s/h%.0f/j%.0f/clip%d", d.Name, p.BodyHeight, p.JumpPx, k)
	return p, annot, name
}

// makeClip renders clip k of the mix.
func makeClip(g geometry, seed int64, k int) (*clip, error) {
	p, annot, name := clipParams(g, seed, k)
	v, err := synth.Generate(p)
	if err != nil {
		return nil, fmt.Errorf("clip %s: %w", name, err)
	}
	return &clip{name: name, video: v, manual: v.ManualAnnotation(synth.DefaultAnnotationError(), annot)}, nil
}

// upload is a clip encoded as the multipart body of POST /v1/jobs.
type upload struct {
	body  []byte
	ctype string
	// frame0 is the byte offset of the first frame's pixel data, where
	// variants plant their mark.
	frame0 int
}

// encodeUpload builds the multipart clip upload: PPM frames ordered by
// name, the truth file carrying the first-frame annotation, and the form
// fields of a segmentation-only request returning silhouettes.
func encodeUpload(c *clip) (*upload, error) {
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	frame0 := -1
	for k, f := range c.video.Frames {
		fw, err := mw.CreateFormFile("frames", clipio.FrameName(k))
		if err != nil {
			return nil, err
		}
		if k == 0 {
			frame0 = body.Len() + len(fmt.Sprintf("P6\n%d %d\n255\n", f.W, f.H))
		}
		if err := imaging.EncodePPM(fw, f); err != nil {
			return nil, err
		}
	}
	fw, err := mw.CreateFormFile("truth", "truth.txt")
	if err != nil {
		return nil, err
	}
	if err := clipio.WritePoses(fw, []stickmodel.Pose{c.manual}); err != nil {
		return nil, err
	}
	for _, kv := range [][2]string{{"stages", "segmentation"}, {"silhouettes", "1"}} {
		if err := mw.WriteField(kv[0], kv[1]); err != nil {
			return nil, err
		}
	}
	if err := mw.Close(); err != nil {
		return nil, err
	}
	return &upload{body: body.Bytes(), ctype: mw.FormDataContentType(), frame0: frame0}, nil
}

// variant returns a copy of the upload whose first frame carries the
// number v in the least significant bits of its first 32 pixel bytes, a
// corner of background far from the jumper: a distinct clip (a distinct
// content hash) for every v, at the cost of one copy.
func (u *upload) variant(v int) []byte {
	out := append([]byte(nil), u.body...)
	for b := 0; b < 32; b++ {
		i := u.frame0 + b
		out[i] = out[i]&^1 | byte(v>>b&1)
	}
	return out
}
