//! Ingress encodes that share one rounding stream, through the retired names.

pub fn defer(stream: &Arc<Turnstile<StochasticRng>>, job: FeedbackJob) -> Turn {
    let turn = job.draws_rounding_words().then(|| stream.ticket());
    let draws = kernels::feedback_draws(dim, scale);
    turn
}
