"""Frozen event logs for the replay fixtures.

Each constant is the exact, full event log of a protocol run of the named
built-in scenario.  ``replay`` compares a fresh run against these line by
line; any behavioural drift shows up as a first-difference diff.

Regenerate (after an intentional behaviour change) with::

    python -m edgeplace run --scenario fig2 --algo dapp --log -

and paste the event log it prints after the report row here.
"""

from __future__ import annotations

FIG2_EVENTS = """\
0.000000 s5 arrive r0 class=0
0.000100 s5 scan run na=[r0] pu=[]
0.000100 s5 scan assign r0
0.000100 s5 scan forward na=[] pu=[r0] -> s2
0.000100 s5 send SfsMsg -> s2 bits=158
0.000338 s2 scan run na=[] pu=[r0]
0.000338 s2 scan forward na=[] pu=[r0] -> s0
0.000338 s2 send SfsMsg -> s0 bits=158
0.000676 s0 scan run na=[] pu=[r0]
0.000676 s0 pu run [r0]
0.000676 s0 pu host r0
0.000676 s0 place r0
0.000676 s0 send PuAckMsg -> s2 bits=95
0.000707 s2 send PuAckMsg -> s5 bits=95
0.000739 s5 pu release r0
0.010000 s3 arrive r1 class=0
0.010100 s3 scan run na=[r1] pu=[]
0.010100 s3 scan assign r1
0.010100 s3 scan forward na=[] pu=[r1] -> s1
0.010100 s3 send SfsMsg -> s1 bits=158
0.010338 s1 scan run na=[] pu=[r1]
0.010338 s1 scan forward na=[] pu=[r1] -> s0
0.010338 s1 send SfsMsg -> s0 bits=158
0.010676 s0 scan run na=[] pu=[r1]
0.010676 s0 pu run [r1]
0.010676 s0 send PuMsg -> s1 bits=158
0.010713 s1 pu run [r1]
0.010713 s1 pu host r1
0.010713 s1 place r1
0.010713 s1 send PuAckMsg -> s3 bits=95
0.010745 s3 pu release r1
0.020000 s4 arrive r2 class=0
0.020100 s4 scan run na=[r2] pu=[]
0.020100 s4 scan assign r2
0.020100 s4 scan forward na=[] pu=[r2] -> s1
0.020100 s4 send SfsMsg -> s1 bits=158
0.020338 s1 scan run na=[] pu=[r2]
0.020338 s1 scan forward na=[] pu=[r2] -> s0
0.020338 s1 send SfsMsg -> s0 bits=158
0.020676 s0 scan run na=[] pu=[r2]
0.020676 s0 pu run [r2]
0.020676 s0 send PuMsg -> s1 bits=158
0.020713 s1 pu run [r2]
0.020713 s1 send PuMsg -> s4 bits=158
0.020751 s4 pu run [r2]
0.020751 s4 pu settle r2
0.020751 s4 place r2
0.030000 s4 arrive r3 class=0
0.030100 s4 scan run na=[r3] pu=[]
0.030100 s4 scan forward na=[r3] pu=[] -> s1
0.030100 s4 send SfsMsg -> s1 bits=158
0.030338 s1 scan run na=[r3] pu=[]
0.030338 s1 scan forward na=[r3] pu=[] -> s0
0.030338 s1 send SfsMsg -> s0 bits=158
0.030676 s0 scan run na=[r3] pu=[]
0.030676 s0 scan push-down-pending [r3]
0.031876 s0 f-mode until 10.031876
0.031876 s0 pd start deficit=1 records=[r3,r0]
0.031876 s0 pd offer -> s1 records=[r3] deficit=1
0.031876 s0 send PdRequestMsg -> s1 bits=191
0.031917 s1 f-mode until 10.031917
0.031917 s1 pd accept from s0 deficit=1 records=[r3,r1]
0.031917 s1 pd offer -> s3 records=[r1] deficit=1
0.031917 s1 send PdRequestMsg -> s3 bits=191
0.031958 s3 f-mode until 10.031958
0.031958 s3 pd accept from s1 deficit=1 records=[r1]
0.031958 s3 pd host r1
0.031958 s3 place r1 (migrated from s1)
0.031958 s3 pd ack -> s1 deficit=1 hosted=[r1]
0.031958 s3 send PdAckMsg -> s1 bits=123
0.031958 s3 pd end
0.031958 s3 f-scan run na=[]
0.031992 s1 pd break
0.031992 s1 pd host r3
0.031992 s1 place r3
0.031992 s1 pd ack -> s0 deficit=0 hosted=[r3]
0.031992 s1 send PdAckMsg -> s0 bits=123
0.031992 s1 pd end
0.031992 s1 f-scan run na=[]
0.032026 s0 pd break
0.032026 s0 pd end
0.032026 s0 f-scan run na=[]
0.040000 s4 depart r3
0.050000 s4 arrive r4 class=0
0.050100 s4 scan run na=[r4] pu=[]
0.050100 s4 scan forward na=[r4] pu=[] -> s1
0.050100 s4 send SfsMsg -> s1 bits=158
0.050338 s1 f-scan run na=[r4]
0.050338 s1 f-scan place r4
0.050338 s1 place r4
"""

FIG3_EVENTS = """\
0.000000 s2 arrive r2 class=1
0.000000 s3 arrive r3 class=1
0.000100 s2 scan run na=[r2] pu=[]
0.000100 s2 scan assign r2
0.000100 s2 scan forward na=[] pu=[r2] -> s0
0.000100 s2 send SfsMsg -> s0 bits=146
0.000100 s3 scan run na=[r3] pu=[]
0.000100 s3 scan assign r3
0.000100 s3 scan forward na=[] pu=[r3] -> s0
0.000100 s3 send SfsMsg -> s0 bits=146
0.000337 s0 scan run na=[] pu=[r2,r3]
0.000337 s0 pu run [r2,r3]
0.000337 s0 pu host r2
0.000337 s0 place r2
0.000337 s0 pu host r3
0.000337 s0 place r3
0.000337 s0 send PuAckMsg -> s2 bits=95
0.000337 s0 send PuAckMsg -> s3 bits=95
0.000368 s2 pu release r2
0.000368 s3 pu release r3
0.010000 s1 arrive r1 class=0
0.010000 s4 arrive r4 class=1
0.010100 s1 scan run na=[r1] pu=[]
0.010100 s1 scan assign r1
0.010100 s1 scan forward na=[] pu=[r1] -> s0
0.010100 s1 send SfsMsg -> s0 bits=146
0.010100 s4 scan run na=[r4] pu=[]
0.010100 s4 scan assign r4
0.010100 s4 scan forward na=[] pu=[r4] -> s0
0.010100 s4 send SfsMsg -> s0 bits=146
0.010337 s0 scan run na=[] pu=[r1,r4]
0.010337 s0 pu run [r1,r4]
0.010337 s0 send PuMsg -> s1 bits=146
0.010337 s0 send PuMsg -> s4 bits=146
0.010373 s1 pu run [r1]
0.010373 s1 pu settle r1
0.010373 s1 place r1
0.010373 s4 pu run [r4]
0.010373 s4 pu settle r4
0.010373 s4 place r4
0.020000 s4 arrive r5 class=1
0.020000 s4 arrive r6 class=1
0.020100 s4 scan run na=[r5,r6] pu=[]
0.020100 s4 scan forward na=[r5,r6] pu=[] -> s0
0.020100 s4 send SfsMsg -> s0 bits=212
0.020343 s0 scan run na=[r5,r6] pu=[]
0.020343 s0 scan push-down-pending [r5,r6]
0.021143 s0 f-mode until 10.021143
0.021143 s0 pd start deficit=3 records=[r5,r6,r2,r3]
0.021143 s0 pd offer -> s2 records=[r2] deficit=3
0.021143 s0 send PdRequestMsg -> s2 bits=179
0.021183 s2 f-mode until 10.021183
0.021183 s2 pd accept from s0 deficit=3 records=[r2]
0.021183 s2 pd host r2
0.021183 s2 place r2 (migrated from s0)
0.021183 s2 pd ack -> s0 deficit=1 hosted=[r2]
0.021183 s2 send PdAckMsg -> s0 bits=123
0.021183 s2 pd end
0.021183 s2 f-scan run na=[]
0.021217 s0 pd offer -> s3 records=[r3] deficit=1
0.021217 s0 send PdRequestMsg -> s3 bits=179
0.021257 s3 f-mode until 10.021257
0.021257 s3 pd accept from s0 deficit=1 records=[r3]
0.021257 s3 pd host r3
0.021257 s3 place r3 (migrated from s0)
0.021257 s3 pd ack -> s0 deficit=-1 hosted=[r3]
0.021257 s3 send PdAckMsg -> s0 bits=123
0.021257 s3 pd end
0.021257 s3 f-scan run na=[]
0.021292 s0 pd break
0.021292 s0 pd host r5
0.021292 s0 place r5
0.021292 s0 pd host r6
0.021292 s0 place r6
0.021292 s0 pd end
0.021292 s0 f-scan run na=[]
"""

GOLDEN_LOGS: dict[str, str] = {
    "fig2": FIG2_EVENTS,
    "fig3": FIG3_EVENTS,
}
