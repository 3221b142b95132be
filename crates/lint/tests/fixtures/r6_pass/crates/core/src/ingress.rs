//! Every encode draws from its own key. Prose may say Turnstile,
//! feedback_draws and draws_rounding_words, and longer names that merely
//! contain one are different names.

pub fn defer(feedback: &mut ErrorFeedback, client: ClientId, model: DenseModel) -> Job {
    let _ = "the Turnstile and feedback_draws are gone";
    let turnstile_free = feedback.take_job(client, model);
    submit(move || turnstile_free.compensate().finish())
}
