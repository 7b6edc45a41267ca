"""Baseline V2P translation schemes from the paper's evaluation (§5)."""

from repro.baselines.base import TranslationScheme
from repro.baselines.bluebird import Bluebird
from repro.baselines.caching import CachingScheme
from repro.baselines.controller import Controller
from repro.baselines.dht import DhtStore
from repro.baselines.direct import Direct
from repro.baselines.gwcache import GwCache
from repro.baselines.locallearning import LocalLearning
from repro.baselines.nocache import NoCache
from repro.baselines.ondemand import OnDemand

__all__ = [
    "TranslationScheme",
    "CachingScheme",
    "NoCache",
    "Direct",
    "OnDemand",
    "GwCache",
    "LocalLearning",
    "Bluebird",
    "Controller",
    "DhtStore",
]
