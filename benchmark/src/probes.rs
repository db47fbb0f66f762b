//! Layer probes of the traced run: the benchmark's own calls into the
//! public functions of `reveil-datasets`, `reveil-core`, `reveil-unlearn`
//! and `reveil-nn`, at the shapes the workload's profile uses, each call
//! inside a span.

use reveil_core::{attack_success_rate, benign_accuracy, ReveilAttack};
use reveil_datasets::DatasetKind;
use reveil_eval::{Profile, ScenarioSpec, UnlearnMethod};
use reveil_nn::loss::softmax_cross_entropy_into;
use reveil_nn::optim::{Adam, Optimizer};
use reveil_nn::{Mode, Network};
use reveil_tensor::{parallel, Tensor};
use reveil_triggers::TriggerKind;

use crate::report::Checks;
use crate::trace::Tracer;
use crate::workloads::Ctx;

/// Repetitions of each timed call.
const REPS: usize = 5;
/// Timed steps per model family and mode.
const STEPS: usize = 10;

/// The model families of the step probe: label, profile, paired dataset.
pub const FAMILIES: [(&str, Profile, DatasetKind); 4] = [
    ("tinycnn_smoke", Profile::Smoke, DatasetKind::Cifar10Like),
    ("tinycnn_quick", Profile::Quick, DatasetKind::Cifar10Like),
    ("mobilenet_quick", Profile::Quick, DatasetKind::GtsrbLike),
    ("effnet_quick", Profile::Quick, DatasetKind::Cifar100Like),
];

/// Stage spans of one serialized step, in order.
pub const STEP_STAGES: [&str; 4] = ["forward", "loss", "backward", "optim"];

/// Dataset generation, attack crafting/injection and measurement.
pub fn data_and_attack(ctx: &Ctx, checks: &mut Checks) {
    let tr = ctx.tracer;
    let p = ctx.profile;
    let seed = ctx.spec_seed(0x960B);
    let kind = ctx.datasets[0];
    let cfg = p.dataset_config(kind, seed);
    let mut pair = None;
    for _ in 0..REPS {
        pair = Some(tr.span("datasets.generate", || cfg.generate()));
    }
    let Some(pair) = pair else { return };
    let trigger = TriggerKind::BadNets;
    let attack = ReveilAttack::new(p.attack_config(trigger, 0, seed), p.trigger(trigger, seed));
    let Some(attack) = checks.result("probe attack", attack) else {
        return;
    };
    let mut network = p.build_model(kind, &cfg, seed);
    for _ in 0..REPS {
        checks.attempt(1);
        let payload = tr.span("core.craft", || attack.craft(&pair.train));
        let Some(payload) = checks.result("core.craft", payload) else {
            continue;
        };
        let training = tr.span("core.inject", || attack.inject(&pair.train, &payload));
        checks.result("core.inject", training);
        let (ba, asr) = tr.span("core.measure", || {
            (
                benign_accuracy(&mut network, &pair.test),
                attack_success_rate(&mut network, &pair.test, attack.trigger(), 0),
            )
        });
        checks.percent("probe BA", ba);
        checks.percent("probe ASR", asr);
    }
}

/// One SISA provider trained on the camouflaged submission, then the
/// adversary's unlearning request. Returns `(samples retrained, cost
/// fraction)`.
pub fn unlearn(ctx: &Ctx, checks: &mut Checks) -> (f64, f64) {
    let tr = ctx.tracer;
    let spec = ScenarioSpec::new(ctx.profile, ctx.datasets[0], TriggerKind::BadNets)
        .with_cr(5.0)
        .with_sigma(1e-3)
        .with_seed(ctx.spec_seed(0x0715))
        .with_unlearner(UnlearnMethod::Sisa);
    checks.attempt(1);
    let provider = tr.span("unlearn.provider_train", || spec.train_provider());
    let Some(mut provider) = checks.result("unlearn.provider_train", provider) else {
        return (0.0, 0.0);
    };
    let report = tr.span("unlearn.unlearn", || provider.restore_backdoor());
    let Some(report) = checks.result("unlearn.unlearn", report) else {
        return (0.0, 0.0);
    };
    let restored = provider.measure();
    checks.percent("restored BA", restored.ba);
    checks.percent("restored ASR", restored.asr);
    (
        report.samples_retrained as f64,
        f64::from(report.cost_fraction()),
    )
}

struct StepBuffers {
    logits: Tensor,
    grad: Tensor,
    grad_input: Tensor,
}

fn full_step(
    net: &mut Network,
    opt: &mut Adam,
    batch: &Tensor,
    labels: &[usize],
    buf: &mut StepBuffers,
) -> bool {
    net.forward_into(batch, Mode::Train, &mut buf.logits);
    let ok =
        softmax_cross_entropy_into(&buf.logits, labels, &mut buf.grad).is_ok_and(f32::is_finite);
    net.zero_grads();
    net.backward_to_input_into(&buf.grad, &mut buf.grad_input);
    opt.step(net);
    ok
}

/// The step probe for one family: `STEPS` warmed steps inside
/// `parallel::serialized` with a span per stage, `STEPS` whole steps at the
/// default worker count, and `STEPS` eval-mode forwards of one
/// audit-sized batch.
pub fn nn_family(
    tr: &Tracer,
    label: &str,
    profile: Profile,
    kind: DatasetKind,
    seed: u64,
    checks: &mut Checks,
) {
    let cfg = profile.dataset_config(kind, seed);
    let pair = cfg.generate();
    let batch_size = profile.train_config(seed).batch_size;
    let audit_size = profile.defense_sample_count();
    let images = pair.train.images();
    let (Ok(batch), Ok(audit_batch)) = (
        Tensor::stack(&images[..batch_size.min(images.len())]),
        Tensor::stack(&images[..audit_size.min(images.len())]),
    ) else {
        checks.fail(format!("{label}: could not stack a batch"));
        return;
    };
    let labels: Vec<usize> = pair.train.labels()[..batch.shape()[0]].to_vec();
    let mut net = profile.build_model(kind, &cfg, seed);
    let mut opt = Adam::new(5e-3).with_weight_decay(1e-4);
    let mut buf = StepBuffers {
        logits: Tensor::zeros(&[0]),
        grad: Tensor::zeros(&[0]),
        grad_input: Tensor::zeros(&[0]),
    };
    let mut ok = true;
    let [forward, loss, backward, optim] = STEP_STAGES.map(|s| format!("nn.{label}.{s}"));
    parallel::serialized(|| {
        for _ in 0..3 {
            ok &= full_step(&mut net, &mut opt, &batch, &labels, &mut buf);
        }
        for _ in 0..STEPS {
            tr.span(&forward, || {
                net.forward_into(&batch, Mode::Train, &mut buf.logits)
            });
            ok &= tr.span(&loss, || {
                softmax_cross_entropy_into(&buf.logits, &labels, &mut buf.grad)
                    .is_ok_and(f32::is_finite)
            });
            tr.span(&backward, || {
                net.zero_grads();
                net.backward_to_input_into(&buf.grad, &mut buf.grad_input);
            });
            tr.span(&optim, || opt.step(&mut net));
        }
        let mut logits = Tensor::zeros(&[0]);
        net.infer_into(&audit_batch, &mut logits);
        for _ in 0..STEPS {
            tr.span(&format!("nn.{label}.infer"), || {
                net.infer_into(&audit_batch, &mut logits)
            });
        }
    });
    let team = format!("nn.{label}.step_team");
    for _ in 0..2 {
        ok &= full_step(&mut net, &mut opt, &batch, &labels, &mut buf);
    }
    for _ in 0..STEPS {
        ok &= tr.span(&team, || {
            full_step(&mut net, &mut opt, &batch, &labels, &mut buf)
        });
    }
    checks.attempt(1);
    let logits_finite = buf.logits.data().iter().all(|v| v.is_finite());
    if !ok || !logits_finite {
        checks.fail(format!(
            "{label}: step probe produced an invalid loss or logits"
        ));
    }
}
