import numpy as np
from repro.data import generate_dataset, split_by_types, EpisodeSampler, Vocabulary, CharVocabulary
from repro.meta import MethodConfig, build_method
from repro.meta.evaluate import fixed_episodes
from repro.models import BackboneConfig

ds = generate_dataset("NNE", scale=0.05, seed=0)
tr, va, te = split_by_types(ds, (52,10,15), seed=1)
wv = Vocabulary.from_datasets([tr]); cv = CharVocabulary.from_datasets([tr])
cfg = MethodConfig(seed=0, inner_lr=0.5, pretrain_iterations=120, backbone=BackboneConfig(context_dim=32))
m = build_method("FewNER", wv, cv, 5, cfg)
sampler = EpisodeSampler(tr, 5, 1, query_size=4, seed=7)
m.fit(sampler, 0)   # only pretraining
test_eps = fixed_episodes(te, 5, 1, 5, seed=99, query_size=4)
train_eps = fixed_episodes(tr, 5, 1, 5, seed=98, query_size=4)
for tag, eps in (("TRAIN", train_eps), ("TEST", test_eps)):
    ep = eps[0]
    preds = m.predict_episode(ep)
    print(f"--- {tag} episode types {ep.types}")
    for sent, p in list(zip(ep.query, preds))[:3]:
        gold = [sp.as_tuple() for sp in sent.spans]
        print("  gold:", gold)
        print("  pred:", p)
    # raw emissions stats for first sentence
    batch = m.model.encode([ep.query[0]], ep.scheme)
    import repro.autodiff as ad
    with ad.no_grad():
        em = m.model.emission_scores(batch)[0].data
    print("  emission mean per tag:", np.round(em.mean(axis=0),2))
